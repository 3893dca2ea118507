package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"mhla/internal/benchmeta"
)

// runFile is the -out file of one invocation: the host it ran on and
// one report per workload.
type runFile struct {
	Host    benchmeta.Host `json:"host"`
	Command []string       `json:"command"`
	Runs    []*report      `json:"runs"`
}

func writeRunFile(path string, reports []*report) error {
	data, err := json.MarshalIndent(runFile{Host: benchmeta.Collect(), Command: os.Args, Runs: reports}, "", "  ")
	if err != nil {
		return fmt.Errorf("encode %s: %w", path, err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

func readRunFile(path string) (*runFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f runFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

// The verdicts of a comparison row.
const (
	verdictWithin     = "within bound"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// compareRow is one workload x metric of a comparison.
type compareRow struct {
	workload, metric, unit string
	better                 string
	bound, floor           float64
	a, b                   []float64
	verdict                string
}

// allowance is how far the metric may move the wrong way from base: the
// bound's share of base or the absolute floor, whichever is larger.
func allowance(bound, floor, base float64) float64 {
	return math.Max(bound*math.Abs(base), floor)
}

// judge decides a row. The change (b) is worse when its median moved
// the wrong way from the baseline's (a) by more than the allowance. A
// row whose quartile spread on either side exceeds the allowance is
// unresolved — the runs cannot tell such a change from noise — unless
// every run of b reads better than every run of a.
func judge(better string, bound, floor float64, a, b []float64) string {
	ma, mb := median(a), median(b)
	worse := mb - ma
	if better == "higher" {
		worse = -worse
	}
	allowed := allowance(bound, floor, ma)
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			if (better == "higher" && y <= x) || (better != "higher" && y >= x) {
				allBetter = false
			}
		}
	}
	if allBetter {
		return verdictWithin
	}
	for _, side := range [][]float64{a, b} {
		q1, _, q3 := quartiles(side)
		if q3-q1 > allowed {
			return verdictUnresolved
		}
	}
	if worse > allowed {
		return verdictWorse
	}
	return verdictWithin
}

// compareRuns pairs the end-to-end metrics of baseline (a) and change
// (b) run files by workload and metric. Metrics without a value on
// both sides are skipped.
func compareRuns(a, b []*runFile) []compareRow {
	type key struct{ workload, metric string }
	rows := map[key]*compareRow{}
	add := func(files []*runFile, side int) {
		for _, f := range files {
			for _, r := range f.Runs {
				for _, m := range r.Metrics {
					k := key{r.Workload, m.Name}
					row := rows[k]
					if row == nil {
						row = &compareRow{workload: r.Workload, metric: m.Name, unit: m.Unit,
							better: m.Better, bound: m.Bound, floor: m.Floor}
						rows[k] = row
					}
					if side == 0 {
						row.a = append(row.a, m.Value)
					} else {
						row.b = append(row.b, m.Value)
					}
				}
			}
		}
	}
	add(a, 0)
	add(b, 1)
	var out []compareRow
	for _, row := range rows {
		if len(row.a) == 0 || len(row.b) == 0 {
			continue
		}
		row.verdict = judge(row.better, row.bound, row.floor, row.a, row.b)
		out = append(out, *row)
	}
	order := map[string]int{}
	for i, d := range allEndToEnd {
		order[d.Name] = i
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].workload != out[j].workload {
			return out[i].workload < out[j].workload
		}
		return order[out[i].metric] < order[out[j].metric]
	})
	return out
}

func printCompare(w io.Writer, rows []compareRow) {
	fmt.Fprintf(w, "%-11s %-17s %-7s %-36s %-36s %-13s %-8s %s\n",
		"workload", "metric", "unit", "baseline median [q1, q3] (n)", "change median [q1, q3] (n)", "bound", "change", "verdict")
	side := func(v []float64) string {
		q1, q2, q3 := quartiles(v)
		return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", q2, q1, q3, len(v))
	}
	for _, r := range rows {
		bound := fmt.Sprintf("%+.0f%%", 100*r.bound)
		if r.better == "higher" {
			bound = fmt.Sprintf("-%.0f%%", 100*r.bound)
		}
		if r.floor > 0 {
			bound += fmt.Sprintf(" or %g", r.floor)
		}
		change := "n/a"
		if ma := median(r.a); ma != 0 {
			change = fmt.Sprintf("%+.1f%%", 100*(median(r.b)-ma)/math.Abs(ma))
		}
		fmt.Fprintf(w, "%-11s %-17s %-7s %-36s %-36s %-13s %-8s %s\n",
			r.workload, r.metric, r.unit, side(r.a), side(r.b), bound, change, r.verdict)
	}
}

// runCompare is the compare subcommand: two comma-separated lists of
// -out files, the baseline's and the change's.
func runCompare(w io.Writer, args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: mhla-bench compare A1.json,A2.json,... B1.json,B2.json,...")
	}
	var sides [2][]*runFile
	for i, list := range args {
		for _, path := range strings.Split(list, ",") {
			if path == "" {
				continue
			}
			f, err := readRunFile(path)
			if err != nil {
				return err
			}
			sides[i] = append(sides[i], f)
		}
	}
	rows := compareRuns(sides[0], sides[1])
	if len(rows) == 0 {
		return fmt.Errorf("compare: no workload metric has runs on both sides")
	}
	printCompare(w, rows)
	return nil
}
