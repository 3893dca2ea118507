// Command mhla-explore sweeps the on-chip layer size for one
// application — or fans a whole app x size x objective grid out over
// the concurrent batch Explorer — running the full MHLA+TE flow at
// every point. It prints the trade-off table, its Pareto frontier and
// (optionally) CSV for external plotting. This regenerates the
// paper's trade-off exploration (experiment E1 in DESIGN.md).
//
// The program is compiled once (analysis, lifetime tables) and the
// sweep points are evaluated concurrently; -workers is the one worker
// budget (WithWorkers): it sizes the sweep pool, the batch Explorer
// pool and the exact engines' search pool.
//
// Usage:
//
//	mhla-explore -app qsdpcm
//	mhla-explore -app me -sizes 512,1024,2048,4096
//	mhla-explore -app cavity -csv > cavity.csv
//	mhla-explore -app qsdpcm -workers 4 -json > sweep.json
//	mhla-explore -apps me,qsdpcm,durbin -workers 8   # concurrent batch
//	mhla-explore -apps me,qsdpcm -csv > batch.csv    # batch as CSV
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"mhla/internal/apps"
	"mhla/pkg/mhla"
)

func main() {
	var (
		appName    = flag.String("app", "qsdpcm", "application to explore")
		engine     = flag.String("engine", "", "search engine per point (see mhla -list-engines; default greedy)")
		appsCSV    = flag.String("apps", "", "comma-separated applications for a concurrent batch grid (overrides -app)")
		sizeCSV    = flag.String("sizes", "", "comma-separated L1 sizes in bytes (default 256..64K half-power steps)")
		scale      = flag.String("scale", "paper", "workload scale: paper or test")
		workers    = flag.Int("workers", 0, "worker budget of the sweep or batch and its searches (0 = GOMAXPROCS)")
		emitCSV    = flag.Bool("csv", false, "emit CSV instead of tables")
		emitJSON   = flag.Bool("json", false, "emit the sweep as JSON (single-app mode)")
		progress   = flag.Bool("progress", false, "report batch progress on stderr")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the sweep to this file")
		memProfile = flag.String("memprofile", "", "write a pprof heap profile to this file at exit")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			fatal(err)
		}
		stopCPUProfile = func() {
			pprof.StopCPUProfile()
			f.Close()
		}
		defer stopCPUProfile()
	}
	if *memProfile != "" {
		memProfilePath = *memProfile
		defer writeMemProfile()
	}

	sc, err := apps.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	var sizes []int64
	if *sizeCSV != "" {
		for _, s := range strings.Split(*sizeCSV, ",") {
			v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil || v <= 0 {
				fatal(fmt.Errorf("bad size %q", s))
			}
			sizes = append(sizes, v)
		}
	}

	var engineOpts []mhla.Option
	if *engine != "" {
		eng, err := mhla.ParseEngine(*engine)
		if err != nil {
			fatal(err)
		}
		engineOpts = append(engineOpts, mhla.WithEngine(eng))
	}

	if *appsCSV != "" {
		if *emitJSON {
			fatal(fmt.Errorf("-json applies to the single-app sweep (use -csv for batches)"))
		}
		batch(*appsCSV, sc, sizes, *workers, *progress, *emitCSV, engineOpts)
		return
	}

	app, err := apps.ByName(*appName)
	if err != nil {
		fatal(err)
	}
	opts := append([]mhla.Option{mhla.WithWorkers(*workers)}, engineOpts...)
	sw, err := mhla.SweepL1(context.Background(), app.Build(sc), sizes, opts...)
	if err != nil {
		fatal(err)
	}
	if *emitJSON {
		out, err := sw.JSON()
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(out))
		return
	}
	if *emitCSV {
		fmt.Print(sw.CSV())
		return
	}
	fmt.Print(sw)
	fmt.Println()
	fmt.Println("Pareto frontier (MHLA+TE points):")
	fmt.Print(mhla.ParetoRender(sw.Frontier()))
}

// batch fans the requested applications out over the Explorer worker
// pool and prints the deterministic batch report.
func batch(appsCSV string, sc apps.Scale, sizes []int64, workers int, progress, emitCSV bool, opts []mhla.Option) {
	var grid mhla.Grid
	for _, name := range strings.Split(appsCSV, ",") {
		app, err := apps.ByName(strings.TrimSpace(name))
		if err != nil {
			fatal(err)
		}
		grid.Apps = append(grid.Apps, mhla.GridApp{Name: app.Name, Program: app.Build(sc)})
	}
	grid.L1Sizes = sizes
	grid.Options = opts

	ex := mhla.Explorer{Options: []mhla.Option{mhla.WithWorkers(workers)}}
	if progress {
		ex.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rmhla-explore: %d/%d jobs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	results, err := ex.Explore(context.Background(), grid.Jobs())
	if err != nil {
		fatal(err)
	}
	if emitCSV {
		fmt.Print(mhla.BatchCSV(results))
	} else {
		fmt.Print(mhla.BatchReport(results))
	}
	for _, r := range results {
		if r.Err != nil {
			exit(1)
		}
	}
}

// stopCPUProfile flushes and closes an in-progress -cpuprofile
// capture. exit calls it explicitly because os.Exit skips deferred
// calls — without this, any failed run would leave a truncated,
// unreadable profile file.
var stopCPUProfile = func() {}

// memProfilePath is the -memprofile destination, cleared once
// written. exit dumps it too (best-effort, never recursing into
// fatal), so failed runs still yield a heap profile.
var memProfilePath string

// writeMemProfile captures the heap profile for -memprofile. It runs
// at most once.
func writeMemProfile() {
	path := memProfilePath
	if path == "" {
		return
	}
	memProfilePath = ""
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mhla-explore:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "mhla-explore:", err)
	}
}

// exit flushes any in-progress profiles before terminating (os.Exit
// skips deferred calls).
func exit(code int) {
	writeMemProfile()
	stopCPUProfile()
	os.Exit(code)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mhla-explore:", err)
	exit(1)
}
