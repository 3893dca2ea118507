package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if err := runCompare(os.Stdout, os.Args[2:]); err != nil {
			fatal(err)
		}
		return
	}
	var (
		name    = flag.String("workload", "all", "workload to run: run-paper, run-churn, sweep-jobs, simulate or all")
		seed    = flag.Int64("seed", 1, "seed of every pick order, draw, priority and tenant")
		seconds = flag.Float64("seconds", 30, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
		spans   = flag.String("spans", "", "traced run: write the recorded spans to this JSON file")
		out     = flag.String("out", "", "write the metrics and the host block to this JSON file")
		smoke   = flag.Bool("smoke", false, "short run at tiny rates, simulating test-scale apps")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected arguments %v", flag.Args()))
	}
	if *trace != 0 && *trace != 1 {
		fatal(fmt.Errorf("-trace %d: want 0 or 1", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds %g: must be positive", *seconds))
	}
	o := runOptions{
		env:    env{seed: *seed, seconds: *seconds, smoke: *smoke, cpus: runtime.NumCPU()},
		traced: *trace == 1,
		spans:  *spans,
	}
	if o.smoke {
		o.seconds = smokeSeconds
	}
	reports, err := runAll(context.Background(), *name, o, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if *out != "" {
		if err := writeRunFile(*out, reports); err != nil {
			fatal(err)
		}
	}
	line, err := resultLine(reports)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s\n", line)
}

// runAll runs the named workload (every workload for "all") and prints
// each report as it completes.
func runAll(ctx context.Context, name string, o runOptions, w io.Writer) ([]*report, error) {
	list := workloads
	if name != "all" {
		wl, err := workloadByName(name)
		if err != nil {
			return nil, err
		}
		list = []workload{wl}
	}
	var reports []*report
	for _, wl := range list {
		ro := o
		if len(list) > 1 && ro.spans != "" {
			ro.spans = strings.TrimSuffix(ro.spans, ".json") + "." + wl.name + ".json"
		}
		r, err := runWorkload(ctx, wl, ro)
		if err != nil {
			return nil, err
		}
		r.print(w)
		reports = append(reports, r)
	}
	return reports, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mhla-bench:", err)
	os.Exit(1)
}
