// Command mhla runs the full MHLA-with-time-extensions flow on one of
// the nine benchmark applications and prints the resulting assignment,
// prefetch plan and the four operating points of the paper's figures.
// It is a thin shell over the pkg/mhla facade:
//
//	res, err := mhla.Run(ctx, prog,
//		mhla.WithPlatform(plat),
//		mhla.WithObjective(mhla.Energy),
//	)
//
// Usage:
//
//	mhla -app me                 # paper-scale run on the app's default L1
//	mhla -app cavity -l1 4096    # override the on-chip size
//	mhla -app me -objective time # optimize cycles instead of energy
//	mhla -app me -engine bnb     # exact search instead of greedy
//	mhla -app me -no-te          # skip the time-extension step
//	mhla -app me -timeout 30s    # bound the search wall-clock
//	mhla -app me -verbose        # also dump the assignment and TE plan
//	mhla -model fir.json         # explore an external JSON application
//	mhla -app me -platform p.json  # explore on an external platform
//	mhla -list                   # list the applications (sorted by name)
//
// The trace-driven cache simulator backend compares hardware-cache
// operating points (plain LRU, next-line and stride prefetch) on the
// same program+platform:
//
//	mhla -app durbin -scale test -simulate
//	mhla -app me -simulate -sim-line 64 -sim-ways 2 -sim-prefetch stride
//
// For performance work the flow can capture pprof data directly:
//
//	mhla -app me -engine bnb -cpuprofile cpu.out -memprofile mem.out
//	go tool pprof cpu.out
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"mhla/internal/apps"
	"mhla/pkg/mhla"
)

// engineListing renders the -list-engines output: one line per
// registered engine, sorted by name (the registry order), with the
// capability flags and the one-line summary. The format is pinned by
// a golden test — scripts parse it.
func engineListing() string {
	var b strings.Builder
	for _, info := range mhla.Engines() {
		var caps []string
		if info.Exact {
			caps = append(caps, "exact")
		}
		if info.Anytime {
			caps = append(caps, "anytime")
		}
		if info.Deterministic {
			caps = append(caps, "deterministic")
		}
		if info.UsesSeed {
			caps = append(caps, "seed")
		}
		fmt.Fprintf(&b, "%-10s %-36s %s\n", info.Name, strings.Join(caps, ","), info.Summary)
	}
	return b.String()
}

func main() {
	var (
		appName     = flag.String("app", "me", "application to run (see -list)")
		l1          = flag.Int64("l1", 0, "on-chip scratchpad bytes (0 = application default)")
		scale       = flag.String("scale", "paper", "workload scale: paper or test")
		objective   = flag.String("objective", "energy", "search objective: energy, time or edp")
		engine      = flag.String("engine", "greedy", "search engine (see -list-engines)")
		workers     = flag.Int("workers", 0, "worker goroutines for the exact engines (0 = GOMAXPROCS; results are identical at any count)")
		seed        = flag.Int64("seed", 0, "random seed for the stochastic engines (results are byte-reproducible per seed)")
		deadline    = flag.Duration("deadline", 0, "wall-clock budget for the anytime engines (0 = none)")
		listEngines = flag.Bool("list-engines", false, "list the registered search engines")
		policy      = flag.String("policy", "slide", "copy transfer policy: slide or refetch")
		noTE        = flag.Bool("no-te", false, "skip the time-extension step")
		noDMA       = flag.Bool("no-dma", false, "platform without a DMA engine (TE not applicable)")
		noInplace   = flag.Bool("no-inplace", false, "disable lifetime-aware (in-place) size estimation")
		timeout     = flag.Duration("timeout", 0, "abort the flow after this duration (0 = none)")
		verbose     = flag.Bool("verbose", false, "print the assignment and the TE plan")
		list        = flag.Bool("list", false, "list the available applications")
		modelFile   = flag.String("model", "", "JSON application model file (overrides -app)")
		platFile    = flag.String("platform", "", "JSON platform file (overrides -l1/-no-dma)")
		simulate    = flag.Bool("simulate", false, "run the trace-driven cache+prefetch simulator instead of the MHLA flow")
		simLine     = flag.Int("sim-line", 32, "simulator cache line bytes (power of two)")
		simWays     = flag.Int("sim-ways", 4, "simulator cache associativity")
		simPrefetch = flag.String("sim-prefetch", "all",
			"simulator prefetcher: none, nextline, stride, or all to compare every variant")
		simEntries = flag.Int("sim-entries", 8, "simulator prefetch buffer entries per level")
		simDegree  = flag.Int("sim-degree", 1, "simulator prefetch degree (lines per trigger)")
		simLatency = flag.Int("sim-latency", 4, "simulator prefetch arrival latency in demand accesses")
		simMaxAcc  = flag.Int64("sim-max-accesses", 0, "simulator trace budget (0 = default 5M; paper-scale apps may need -scale test)")
		cpuProfile = flag.String("cpuprofile", "", "write a pprof CPU profile of the flow to this file")
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

	if *listEngines {
		fmt.Print(engineListing())
		return
	}

	if *list {
		all := apps.All()
		sort.Slice(all, func(i, j int) bool { return all[i].Name < all[j].Name })
		for _, a := range all {
			fmt.Printf("%-8s %-18s L1=%-6d %s\n", a.Name, a.Domain, a.L1, a.Description)
		}
		return
	}

	sc, err := apps.ParseScale(*scale)
	if err != nil {
		fatal(err)
	}
	var prog *mhla.Program
	name := *appName
	size := int64(0)
	if *modelFile != "" {
		data, err := os.ReadFile(*modelFile)
		if err != nil {
			fatal(err)
		}
		prog, err = mhla.DecodeProgram(data)
		if err != nil {
			fatal(err)
		}
		name = prog.Name
		size = mhla.DefaultL1
	} else {
		app, err := apps.ByName(name)
		if err != nil {
			fatal(err)
		}
		prog = app.Build(sc)
		size = app.L1
	}
	if *l1 > 0 {
		size = *l1
	}
	plat := mhla.TwoLevel(size)
	if *noDMA {
		plat = mhla.TwoLevelNoDMA(size)
	}
	if *platFile != "" {
		data, err := os.ReadFile(*platFile)
		if err != nil {
			fatal(err)
		}
		plat, err = mhla.DecodePlatform(data)
		if err != nil {
			fatal(err)
		}
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	if *simulate {
		err := runSimulate(ctx, prog, plat, simFlags{
			line:        *simLine,
			ways:        *simWays,
			prefetch:    *simPrefetch,
			entries:     *simEntries,
			degree:      *simDegree,
			latency:     *simLatency,
			maxAccesses: *simMaxAcc,
		})
		if err != nil {
			fatal(err)
		}
		return
	}

	obj, err := mhla.ParseObjective(*objective)
	if err != nil {
		fatal(err)
	}
	eng, err := mhla.ParseEngine(*engine)
	if err != nil {
		fatal(err)
	}
	pol, err := mhla.ParsePolicy(*policy)
	if err != nil {
		fatal(err)
	}
	opts := []mhla.Option{
		mhla.WithPlatform(plat),
		mhla.WithObjective(obj),
		mhla.WithEngine(eng),
		mhla.WithPolicy(pol),
		mhla.WithWorkers(*workers),
		mhla.WithSeed(*seed),
	}
	if *deadline > 0 {
		opts = append(opts, mhla.WithDeadline(*deadline))
	}
	if *noTE {
		opts = append(opts, mhla.WithoutTE())
	}
	if *noInplace {
		opts = append(opts, mhla.WithoutInPlace())
	}

	res, err := mhla.Run(ctx, prog, opts...)
	if err != nil {
		fatal(err)
	}

	st := prog.Stats()
	fmt.Printf("%s (%s scale): %d arrays, %d blocks, %d loops, %d accesses\n",
		name, sc, st.Arrays, st.Blocks, st.Loops, st.AccessesExec)
	fmt.Print(plat)
	if *verbose {
		fmt.Println()
		fmt.Print(res.Assignment)
		fmt.Println()
		fmt.Print(res.Assignment.ExplainString())
		fmt.Println()
		fmt.Print(res.Plan)
		if maps, err := mhla.Layout(res.Plan.Assignment); err == nil {
			for _, m := range maps {
				fmt.Println()
				fmt.Print(m)
			}
		}
	}
	fmt.Println()
	fmt.Print(res.Summary())
}

// stopCPUProfile flushes and closes an in-progress -cpuprofile
// capture. fatal calls it explicitly because os.Exit skips deferred
// calls — without this, any failed run would leave a truncated,
// unreadable profile file.
var stopCPUProfile = func() {}

// memProfilePath is the -memprofile destination, cleared once
// written. fatal dumps it too (best-effort, never recursing into
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
		fmt.Fprintln(os.Stderr, "mhla:", err)
		return
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fmt.Fprintln(os.Stderr, "mhla:", err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mhla:", err)
	writeMemProfile()
	stopCPUProfile()
	os.Exit(1)
}
