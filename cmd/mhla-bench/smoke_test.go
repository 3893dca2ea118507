package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the
// smoke test checks the benchmark against.
type benchmarkFile struct {
	Command   []string `json:"command"`
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloads[i].name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end metrics, the benchmark reports %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range bf.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the benchmark reports %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range bf.PerLayer {
		d := perLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per-layer metric %d: BENCHMARK.json %+v, benchmark %+v", i, m, d)
		}
	}
}

// TestSmoke runs every workload briefly at tiny rates, untraced and
// traced, so the benchmark keeps working as the code under it changes.
func TestSmoke(t *testing.T) {
	bf := readBenchmarkFile(t)
	e := env{seed: 1, seconds: smokeSeconds, smoke: true, cpus: runtime.NumCPU()}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			r, err := runWorkload(context.Background(), w, runOptions{env: e, traced: traced})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			var out bytes.Buffer
			r.print(&out)
			text := out.String()
			if r.Failed != 0 || !r.Correct || r.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d ops failed, correct %v\n%s", w.name, traced, r.Failed, r.Attempted, r.Correct, text)
			}
			if traced {
				for _, m := range bf.PerLayer {
					if !hasMetricLine(text, m.Name, m.Unit) {
						t.Errorf("%s traced: per-layer metric %s [%s] not printed:\n%s", w.name, m.Name, m.Unit, text)
					}
				}
				continue
			}
			for _, m := range bf.EndToEnd {
				if !hasMetricLine(text, m.Name, m.Unit) {
					t.Errorf("%s: end-to-end metric %s [%s] not printed:\n%s", w.name, m.Name, m.Unit, text)
				}
			}
			if !hasMetricLine(text, errorPct.Name, errorPct.Unit) || !strings.Contains(text, "\nerror_pct 0 %\n") {
				t.Errorf("%s: error_pct is not 0:\n%s", w.name, text)
			}
			if w.name == "simulate" && !hasMetricLine(text, simMaccS.Name, simMaccS.Unit) {
				t.Errorf("simulate: %s not printed:\n%s", simMaccS.Name, text)
			}
			if _, err := resultLine([]*report{r}); err != nil {
				t.Errorf("%s: result line: %v", w.name, err)
			}
		}
	}
}

// hasMetricLine reports whether a "name value unit" line (a value of
// "-" for an omitted percentile) is in the text.
func hasMetricLine(text, name, unit string) bool {
	for _, line := range strings.Split(text, "\n") {
		f := strings.Fields(line)
		if len(f) >= 3 && f[0] == name && f[2] == unit {
			return true
		}
	}
	return false
}
