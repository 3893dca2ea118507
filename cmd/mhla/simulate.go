package main

import (
	"context"
	"fmt"

	"mhla/pkg/mhla"
)

// simFlags carries the -sim-* knobs into the simulate mode.
type simFlags struct {
	line        int
	ways        int
	prefetch    string
	entries     int
	degree      int
	latency     int
	maxAccesses int64
}

// runSimulate is the -simulate mode: replay the program's access trace
// through a cache hierarchy derived from the platform's on-chip layers
// and print one comparison row per prefetcher variant (plus the
// memory-only anchor for reference).
func runSimulate(ctx context.Context, prog *mhla.Program, plat *mhla.Platform, f simFlags) error {
	var kinds []mhla.Prefetcher
	if f.prefetch == "all" {
		kinds = []mhla.Prefetcher{mhla.PrefetchNone, mhla.PrefetchNextLine, mhla.PrefetchStride}
	} else {
		kind, err := mhla.ParseCachePrefetcher(f.prefetch)
		if err != nil {
			return err
		}
		kinds = []mhla.Prefetcher{kind}
	}

	// Compile once; every variant replays the same analysis.
	ws, err := mhla.Compile(prog)
	if err != nil {
		return err
	}
	base := mhla.CacheConfigFor(plat, f.ways, f.line)

	type row struct {
		label string
		res   *mhla.CacheResult
	}
	var rows []row

	anchor := mhla.CacheConfig{MaxAccesses: f.maxAccesses}
	res, err := mhla.Simulate(ctx, prog, anchor, mhla.WithPlatform(plat), mhla.WithWorkspace(ws))
	if err != nil {
		return err
	}
	rows = append(rows, row{"no-cache", res})

	for _, kind := range kinds {
		cfg := mhla.CacheConfig{
			Levels:      append([]mhla.CacheLevel(nil), base.Levels...),
			MaxAccesses: f.maxAccesses,
		}
		for i := range cfg.Levels {
			cfg.Levels[i].Prefetcher = kind
			if kind != mhla.PrefetchNone {
				cfg.Levels[i].PrefetchEntries = f.entries
				cfg.Levels[i].PrefetchDegree = f.degree
				cfg.Levels[i].PrefetchLatency = f.latency
			}
		}
		res, err := mhla.Simulate(ctx, prog, cfg, mhla.WithPlatform(plat), mhla.WithWorkspace(ws))
		if err != nil {
			return err
		}
		rows = append(rows, row{"cache+" + kind.String(), res})
	}

	first := rows[0].res
	fmt.Printf("cache simulation: %s on %s (%d accesses", first.Program, first.Platform, first.Accesses)
	if len(base.Levels) > 0 {
		lv := base.Levels[0]
		fmt.Printf("; L1 %d sets x %d ways x %d B lines", lv.Sets, lv.Ways, lv.LineBytes)
	}
	fmt.Println(")")
	fmt.Printf("%-16s %14s %16s %10s %10s %9s %8s\n",
		"variant", "cycles", "energy(pJ)", "mem acc", "L1 hit%", "pf hit%", "pf acc%")
	for _, r := range rows {
		hitPct, pfPct, accPct := "-", "-", "-"
		if len(r.res.Levels) > 0 {
			l1 := r.res.Levels[0]
			if l1.Accesses > 0 {
				hitPct = fmt.Sprintf("%.1f", 100*float64(l1.Hits)/float64(l1.Accesses))
				pfPct = fmt.Sprintf("%.1f", 100*float64(l1.PrefetchHits)/float64(l1.Accesses))
			}
			if l1.PrefetchIssued > 0 {
				accPct = fmt.Sprintf("%.1f", 100*l1.PrefetchAccuracy())
			}
		}
		fmt.Printf("%-16s %14d %16.1f %10d %10s %9s %8s\n",
			r.label, r.res.Cycles, r.res.Energy, r.res.MemoryAccesses, hitPct, pfPct, accPct)
	}
	return nil
}
