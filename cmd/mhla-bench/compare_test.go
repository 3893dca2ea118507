package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	cases := []struct {
		name   string
		better string
		bound  float64
		floor  float64
		a, b   []float64
		want   string
	}{
		{"same", "lower", 0.10, 0, []float64{10, 10.1, 9.9}, []float64{10, 10.2, 9.8}, verdictWithin},
		{"slower within bound", "lower", 0.10, 0, []float64{10, 10.1, 9.9}, []float64{10.8, 10.9, 10.7}, verdictWithin},
		{"slower beyond bound", "lower", 0.10, 0, []float64{10, 10.1, 9.9}, []float64{11.5, 11.6, 11.4}, verdictWorse},
		{"throughput drop", "higher", 0.10, 0, []float64{100, 101, 99}, []float64{85, 86, 84}, verdictWorse},
		{"throughput gain", "higher", 0.10, 0, []float64{100, 101, 99}, []float64{130, 131, 129}, verdictWithin},
		// Quartiles of {5,10,15} are 5 and 15: spread 10 > 10% of 10.
		{"noisy baseline", "lower", 0.10, 0, []float64{5, 10, 15}, []float64{12, 12, 12}, verdictUnresolved},
		{"noisy change", "lower", 0.10, 0, []float64{10, 10, 10}, []float64{8, 12, 16}, verdictUnresolved},
		// Every change run better than every baseline run resolves a
		// noisy row.
		{"noisy but all better", "lower", 0.10, 0, []float64{20, 30, 40}, []float64{5, 10, 15}, verdictWithin},
		// The floor: +0.04 s on a 0.1 s setup is 40% but under 0.05 s.
		{"under the floor", "lower", 0.20, 0.05, []float64{0.1, 0.1, 0.1}, []float64{0.14, 0.14, 0.14}, verdictWithin},
		{"over the floor", "lower", 0.20, 0.05, []float64{0.1, 0.1, 0.1}, []float64{0.16, 0.16, 0.16}, verdictWorse},
		// A zero bound: any failure where there was none is worse.
		{"errors appear", "lower", 0, 0, []float64{0, 0, 0}, []float64{1, 1, 1}, verdictWorse},
		{"errors in some runs", "lower", 0, 0, []float64{0, 0, 0}, []float64{0, 0.5, 0}, verdictUnresolved},
		{"no errors", "lower", 0, 0, []float64{0, 0, 0}, []float64{0, 0, 0}, verdictWithin},
	}
	for _, c := range cases {
		if got := judge(c.better, c.bound, c.floor, c.a, c.b); got != c.want {
			t.Errorf("%s: judge = %q, want %q", c.name, got, c.want)
		}
	}
}

func synthetic(workload string, p50, tput float64) *runFile {
	return &runFile{Runs: []*report{{
		Workload: workload,
		Metrics:  []metricValue{latencyP50.value(p50), throughput.value(tput)},
	}}}
}

func TestCompareRuns(t *testing.T) {
	a := []*runFile{synthetic("run-paper", 1.00, 1000), synthetic("run-paper", 1.01, 1010), synthetic("run-paper", 0.99, 990)}
	b := []*runFile{synthetic("run-paper", 1.30, 1000), synthetic("run-paper", 1.31, 1005), synthetic("run-paper", 1.29, 995)}
	b = append(b, synthetic("simulate", 5, 20)) // no baseline: skipped
	rows := compareRuns(a, b)
	if len(rows) != 2 {
		t.Fatalf("got %d rows, want 2: %+v", len(rows), rows)
	}
	if rows[0].metric != "latency_p50_ms" || rows[0].verdict != verdictWorse {
		t.Errorf("row 0 = %s %s, want latency_p50_ms worse", rows[0].metric, rows[0].verdict)
	}
	if rows[1].metric != "throughput_ops_s" || rows[1].verdict != verdictWithin {
		t.Errorf("row 1 = %s %s, want throughput_ops_s within bound", rows[1].metric, rows[1].verdict)
	}

	dir := t.TempDir()
	var as, bs []string
	for i, f := range a {
		p := filepath.Join(dir, "a"+string(rune('0'+i))+".json")
		if err := writeRunFile(p, f.Runs); err != nil {
			t.Fatal(err)
		}
		as = append(as, p)
	}
	for i, f := range b[:3] {
		p := filepath.Join(dir, "b"+string(rune('0'+i))+".json")
		if err := writeRunFile(p, f.Runs); err != nil {
			t.Fatal(err)
		}
		bs = append(bs, p)
	}
	var out bytes.Buffer
	if err := runCompare(&out, []string{strings.Join(as, ","), strings.Join(bs, ",")}); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"latency_p50_ms", "1 [0.99, 1.01] (3)", "1.3 [1.29, 1.31] (3)", "+30.0%", "worse", "within bound"} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output lacks %q:\n%s", want, text)
		}
	}
	if err := runCompare(&out, []string{as[0]}); err == nil {
		t.Error("compare with one side succeeded")
	}
	if _, err := os.Stat(as[0]); err != nil {
		t.Fatal(err)
	}
}
