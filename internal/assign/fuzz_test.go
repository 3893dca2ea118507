package assign_test

import (
	"context"
	"errors"
	"testing"

	"mhla/internal/assign"
	"mhla/internal/progen"
	"mhla/internal/reuse"
	"mhla/internal/workspace"
)

// FuzzAssign drives the three search engines over progen scenarios
// whose knobs — and platform/program shapes — the fuzzer mutates
// freely. Malformed inputs (out-of-range engines and objectives,
// negative worker counts, capacity-corrupted platforms, dimension
// corrupted programs) must surface as errors from the validation
// layers, never as panics, and every successful search must return a
// structurally valid, capacity-feasible assignment.
func FuzzAssign(f *testing.F) {
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint8(seed%4), uint8(seed%4), uint8(seed%3),
			int16(seed%9-1), int32(seed*1000), int64(0), int64(0))
	}
	f.Fuzz(func(t *testing.T, seed int64, engineB, objB, polB uint8,
		workers int16, maxStates int32, capDelta, dimDelta int64) {
		sc := progen.Config{MaxSpace: 2000}.Generate(seed)

		// Corrupt the platform and program the way a hostile caller
		// might: the validation layers must catch what becomes
		// invalid, and everything else must still search cleanly.
		if capDelta != 0 {
			i := int(uint64(capDelta) % uint64(len(sc.Platform.Layers)))
			sc.Platform.Layers[i].Capacity += capDelta % (1 << 20)
		}
		if dimDelta != 0 {
			arr := sc.Program.Arrays[int(uint64(dimDelta)%uint64(len(sc.Program.Arrays)))]
			arr.Dims[int(uint64(dimDelta)%uint64(len(arr.Dims)))] += int(dimDelta % 64)
		}

		an, err := reuse.Analyze(sc.Program)
		if err != nil {
			return // corrupted program rejected by validation: fine
		}

		opts := sc.Options
		// Pick from the registry most of the time, an invalid name
		// otherwise; the spread keeps stochastic/portfolio runs cheap.
		engines := []assign.Engine{
			assign.Greedy, assign.BranchBound, assign.Exhaustive,
			assign.Stochastic, assign.Portfolio, assign.Engine("nope"),
		}
		opts.Engine = engines[int(engineB)%len(engines)]
		opts.Seed = seed
		opts.Objective = assign.Objective(objB % 4) // 3 is invalid
		opts.Policy = reuse.Policy(polB % 3)        // 2 is invalid
		opts.Workers = int(workers)                 // may be negative
		opts.MaxStates = int(maxStates % 100_000)   // may be negative

		res, err := assign.Search(context.Background(), workspace.FromAnalysis(an), sc.Platform, opts)
		if err != nil {
			// Invalid options must be typed; invalid platforms come
			// from platform.Validate. Either way: error, not panic.
			var oe *assign.OptionError
			if !errors.As(err, &oe) && opts.Validate() != nil {
				t.Fatalf("invalid options returned untyped error %v", err)
			}
			return
		}
		if res.Assignment == nil {
			t.Fatal("nil assignment without error")
		}
		if err := res.Assignment.Validate(); err != nil {
			t.Fatalf("engine %v returned invalid assignment: %v", opts.Engine, err)
		}
		if !res.Assignment.Fits() {
			t.Fatalf("engine %v returned assignment over capacity", opts.Engine)
		}
		if res.Cost.Cycles < 0 || res.Cost.Energy < 0 {
			t.Fatalf("engine %v returned negative cost %+v", opts.Engine, res.Cost)
		}
	})
}
