package cachesim

import (
	"bytes"
	"context"
	"runtime/debug"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/energy"
	"mhla/internal/progen"
	"mhla/internal/workspace"
)

// TestPrefetchOffMatchesBaseline: a level with Prefetcher = none and
// arbitrary junk in the prefetch tuning fields behaves — and renders —
// exactly like the plain cache config. This pins the normalization
// contract: prefetch parameters are inert unless a prefetcher is
// selected.
func TestPrefetchOffMatchesBaseline(t *testing.T) {
	plat := testPlat()
	for seed := int64(1); seed <= 20; seed++ {
		sc := progen.Generate(seed)
		ws, err := workspace.Compile(sc.Program)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		plain := Config{Levels: []LevelConfig{{Sets: 8, Ways: 2, LineBytes: 16}}}
		junk := Config{Levels: []LevelConfig{{
			Sets: 8, Ways: 2, LineBytes: 16,
			Prefetcher: PrefetchNone, PrefetchEntries: 99, PrefetchDegree: 7, PrefetchLatency: 1234,
		}}}
		a, err := Simulate(context.Background(), ws, plat, plain)
		if err != nil {
			t.Fatalf("seed %d plain: %v", seed, err)
		}
		b, err := Simulate(context.Background(), ws, plat, junk)
		if err != nil {
			t.Fatalf("seed %d junk: %v", seed, err)
		}
		aj, err := a.JSON()
		if err != nil {
			t.Fatal(err)
		}
		bj, err := b.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(aj, bj) {
			t.Fatalf("seed %d: prefetch-off config diverges from plain cache:\n%s\nvs\n%s", seed, aj, bj)
		}
	}
}

// TestLRUInclusionMonotone: at fixed associativity and line size, a
// demand-only LRU cache with more sets holds a superset of the smaller
// cache's most-recently-used lines per residency class, so total hits
// are monotone non-decreasing as the set count grows. Randomized
// traces from progen exercise the property; any violation is a bug in
// the replacement bookkeeping.
func TestLRUInclusionMonotone(t *testing.T) {
	plat := testPlat()
	for seed := int64(1); seed <= 25; seed++ {
		sc := progen.Generate(seed)
		ws, err := workspace.Compile(sc.Program)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		prevHits := int64(-1)
		for _, sets := range []int{1, 2, 4, 8, 16, 32} {
			cfg := Config{Levels: []LevelConfig{{Sets: sets, Ways: 2, LineBytes: 16}}}
			res, err := Simulate(context.Background(), ws, plat, cfg)
			if err != nil {
				t.Fatalf("seed %d sets %d: %v", seed, sets, err)
			}
			hits := res.Levels[0].Hits
			if hits < prevHits {
				t.Errorf("seed %d: hits dropped from %d to %d growing sets to %d — LRU inclusion violated",
					seed, prevHits, hits, sets)
			}
			prevHits = hits
			// Conservation at every size.
			l := res.Levels[0]
			if l.Hits+l.PrefetchHits+l.Misses != l.Accesses {
				t.Fatalf("seed %d sets %d: conservation broken", seed, sets)
			}
			if res.MemoryAccesses != l.Misses {
				t.Fatalf("seed %d sets %d: memory accesses %d != misses %d", seed, sets, res.MemoryAccesses, l.Misses)
			}
		}
	}
}

// TestReplayAllocsIndependentOfTraceLength: a replay allocates per
// program site, per loop, per cache level and per prefetch window,
// never per access, strip or prefetch, so the same program structure
// allocates the same at test scale and at paper scale, with no cache
// and with a cache with and without a prefetcher. Each count is of a
// single replay, so the collector is off while they are taken: an
// allocation the runtime makes during a GC cycle in the longer replay
// would otherwise count as the program's.
func TestReplayAllocsIndependentOfTraceLength(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are not the program's")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, name := range []string{"durbin", "qsdpcm"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		plat := energy.TwoLevel(app.L1)
		for _, variant := range []string{"anchor", "lru", "nextline", "stride"} {
			cfg := goldenConfig(variant, plat)
			var allocs [2]float64
			for i, scale := range []apps.Scale{apps.Test, apps.Paper} {
				ws, err := workspace.Compile(app.Build(scale))
				if err != nil {
					t.Fatal(err)
				}
				allocs[i] = testing.AllocsPerRun(1, func() {
					if _, err := Simulate(context.Background(), ws, plat, cfg); err != nil {
						t.Fatal(err)
					}
				})
			}
			if allocs[0] != allocs[1] {
				t.Errorf("%s/%s: %v allocations at test scale, %v at paper scale", name, variant, allocs[0], allocs[1])
			}
		}
	}
}
