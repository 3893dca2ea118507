// Command mhla-report regenerates the paper's evaluation: it runs the
// full MHLA+TE flow on all nine applications at their figure
// configurations — concurrently, through the batch Explorer — and
// renders Figure 2 (performance), Figure 3 (energy) and the
// abstract's headline claims.
//
// Usage:
//
//	mhla-report              # both figures + summary
//	mhla-report -figure 2    # performance figure only
//	mhla-report -csv         # machine-readable results
//	mhla-report -scale test  # down-scaled (fast) workloads
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mhla/internal/apps"
	"mhla/pkg/mhla"
)

func main() {
	var (
		figure  = flag.Int("figure", 0, "figure to render: 2, 3, or 0 for both")
		emitCSV = flag.Bool("csv", false, "emit CSV instead of figures")
		scale   = flag.String("scale", "paper", "workload scale: paper or test")
		workers = flag.Int("workers", 0, "worker budget of the batch and its searches (0 = GOMAXPROCS)")
	)
	flag.Parse()

	sc, err := apps.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	// One job per application at its figure L1, in figure order (the
	// Explorer keeps result order deterministic under concurrency).
	var jobs []mhla.Job
	for _, app := range apps.All() {
		jobs = append(jobs, mhla.Job{
			Label:   app.Name,
			Program: app.Build(sc),
			Options: []mhla.Option{mhla.WithL1(app.L1)},
		})
	}
	ex := mhla.Explorer{Options: []mhla.Option{mhla.WithWorkers(*workers)}}
	batch, err := ex.Explore(context.Background(), jobs)
	if err != nil {
		fatal(err)
	}
	var results []mhla.AppResult
	for _, r := range batch {
		if r.Err != nil {
			fatal(fmt.Errorf("%s: %w", r.Label, r.Err))
		}
		results = append(results, mhla.AppResult{Name: r.Label, Result: r.Result})
	}

	if *emitCSV {
		fmt.Print(mhla.ReportCSV(results))
		return
	}
	if *figure == 0 || *figure == 2 {
		fmt.Print(mhla.Figure2(results))
		fmt.Println()
	}
	if *figure == 0 || *figure == 3 {
		fmt.Print(mhla.Figure3(results))
		fmt.Println()
	}
	fmt.Print(mhla.ReportSummary(results))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mhla-report:", err)
	os.Exit(1)
}
