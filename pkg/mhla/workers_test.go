package mhla_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mhla/internal/progen"
	"mhla/pkg/mhla"
)

// TestSearchWorkersDeterministic drives the parallel BnB engine
// through the facade on generated scenarios: WithWorkers(n) must not
// change the result, and BnB must match the exhaustive optimum.
func TestSearchWorkersDeterministic(t *testing.T) {
	seeds := int64(24)
	if testing.Short() {
		seeds = 8
	}
	for seed := int64(0); seed < seeds; seed++ {
		sc := progen.Config{MaxSpace: 3000}.Generate(seed)
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			an, err := mhla.Analyze(sc.Program)
			if err != nil {
				t.Fatal(err)
			}
			run := func(engine mhla.Engine, workers int) *mhla.SearchResult {
				res, err := mhla.Search(context.Background(), an, sc.Platform,
					mhla.WithEngine(engine), mhla.WithWorkers(workers),
					mhla.WithObjective(sc.Options.Objective), mhla.WithPolicy(sc.Options.Policy))
				if err != nil {
					t.Fatalf("engine %v workers %d: %v", engine, workers, err)
				}
				return res
			}
			ref := run(mhla.BnB, 1)
			for _, w := range []int{2, 8} {
				got := run(mhla.BnB, w)
				if !reflect.DeepEqual(got.Cost, ref.Cost) || got.States != ref.States || got.Complete != ref.Complete {
					t.Errorf("workers=%d: %+v (states %d) != workers=1: %+v (states %d)",
						w, got.Cost, got.States, ref.Cost, ref.States)
				}
			}
			ex := run(mhla.Exhaustive, 0)
			if !reflect.DeepEqual(ex.Cost, ref.Cost) {
				t.Errorf("bnb cost %+v != exhaustive %+v", ref.Cost, ex.Cost)
			}
		})
	}
}

// TestRunOnGeneratedScenarios pushes generated programs and platforms
// through the complete facade flow (greedy engine, TE when the
// platform has DMA) and checks the basic operating-point relations.
func TestRunOnGeneratedScenarios(t *testing.T) {
	for seed := int64(100); seed < 116; seed++ {
		sc := progen.Generate(seed)
		res, err := mhla.Run(context.Background(), sc.Program,
			mhla.WithPlatform(sc.Platform), mhla.WithPolicy(sc.Options.Policy))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.MHLA.Energy > res.Original.Energy+1e-9 {
			t.Errorf("seed %d: MHLA energy %v above original %v", seed, res.MHLA.Energy, res.Original.Energy)
		}
		if res.TE.Energy != res.MHLA.Energy {
			t.Errorf("seed %d: TE changed energy %v -> %v", seed, res.MHLA.Energy, res.TE.Energy)
		}
		if res.Ideal.Cycles > res.MHLA.Cycles {
			t.Errorf("seed %d: ideal %d above MHLA %d cycles", seed, res.Ideal.Cycles, res.MHLA.Cycles)
		}
	}
}

// TestFacadeInputValidation: invalid facade inputs must surface as a
// typed *OptionError naming the offending field, not as silent
// fallbacks or untyped strings.
func TestFacadeInputValidation(t *testing.T) {
	prog := progen.Generate(1).Program
	cases := []struct {
		name  string
		opt   mhla.Option
		field string
	}{
		{"negative workers", mhla.WithWorkers(-2), "Workers"},
		{"negative max states", mhla.WithMaxStates(-1), "MaxStates"},
		{"zero L1", mhla.WithL1(0), "L1"},
		{"negative L1", mhla.WithL1(-4096), "L1"},
		{"nil platform", mhla.WithPlatform(nil), "Platform"},
		{"zero layers", mhla.WithPlatform(&mhla.Platform{Name: "empty"}), "Platform"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := mhla.Run(context.Background(), prog, c.opt)
			var oe *mhla.OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("error %v is not a *mhla.OptionError", err)
			}
			if oe.Field != c.field {
				t.Errorf("rejected field %q, want %q", oe.Field, c.field)
			}
			if _, err := mhla.Search(context.Background(), nil, nil, c.opt); !errors.As(err, &oe) {
				t.Errorf("Search did not reject: %v", err)
			}
			if _, err := mhla.SweepL1(context.Background(), prog, nil, c.opt); !errors.As(err, &oe) {
				t.Errorf("SweepL1 did not reject: %v", err)
			}
		})
	}
}

// TestFacadeRejectsInvalidPlatform: a platform that fails its own
// Validate (an L1 so large its energy model overtakes SDRAM) is
// rejected with a typed *OptionError on Platform by every entry point
// that searches it, not only by Run.
func TestFacadeRejectsInvalidPlatform(t *testing.T) {
	prog := progen.Generate(1).Program
	an, err := mhla.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	var oe *mhla.OptionError
	if _, err := mhla.Search(context.Background(), an, mhla.TwoLevel(2560000)); !errors.As(err, &oe) || oe.Field != "Platform" {
		t.Errorf("Search: error %v, want a *mhla.OptionError on Platform", err)
	}
	if _, err := mhla.SweepL1(context.Background(), prog, []int64{2560000}); !errors.As(err, &oe) || oe.Field != "Platform" {
		t.Errorf("SweepL1: error %v, want a *mhla.OptionError on Platform", err)
	}
	_, err = mhla.Run(context.Background(), prog, mhla.WithL1(2560000))
	if !errors.As(err, &oe) || oe.Field != "Platform" || !strings.HasPrefix(err.Error(), "core: assign: invalid option Platform: ") {
		t.Errorf("Run: error %v, want core: assign: invalid option Platform: ...", err)
	}
}

// TestSweepL1RejectsNonPositiveSizes: a non-positive sweep size is
// rejected up front with a typed *OptionError naming Sizes, the way
// WithL1 rejects a non-positive capacity, before any point runs.
func TestSweepL1RejectsNonPositiveSizes(t *testing.T) {
	prog := progen.Generate(1).Program
	for _, sizes := range [][]int64{{0}, {512, -3, 1024}} {
		_, err := mhla.SweepL1(context.Background(), prog, sizes)
		var oe *mhla.OptionError
		if !errors.As(err, &oe) || oe.Field != "Sizes" {
			t.Errorf("sizes %v: error %v, want a *mhla.OptionError on Sizes", sizes, err)
		}
	}
}

// TestExplorerKeepsJobOptionErrors: the one-worker search cap a
// parallel Explorer applies after each job's options must not mask an
// invalid worker count on the job.
func TestExplorerKeepsJobOptionErrors(t *testing.T) {
	prog := progen.Generate(1).Program
	jobs := []mhla.Job{
		{Label: "bad", Program: prog, Options: []mhla.Option{mhla.WithWorkers(-2)}},
		{Label: "good", Program: prog},
	}
	results, err := (&mhla.Explorer{Options: []mhla.Option{mhla.WithWorkers(2)}}).Explore(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	var oe *mhla.OptionError
	if !errors.As(results[0].Err, &oe) || oe.Field != "Workers" {
		t.Errorf("bad job: error %v, want a *mhla.OptionError on Workers", results[0].Err)
	}
	if results[1].Err != nil {
		t.Errorf("good job: %v", results[1].Err)
	}
}

// TestFacadeNilInputs: a nil program, analysis, assignment or plan is
// rejected with an error at every facade entry point, never a panic.
func TestFacadeNilInputs(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		call func() error
	}{
		{"Run", func() error { _, err := mhla.Run(ctx, nil); return err }},
		{"Compile", func() error { _, err := mhla.Compile(nil); return err }},
		{"SweepL1", func() error { _, err := mhla.SweepL1(ctx, nil, nil); return err }},
		{"Simulate", func() error { _, err := mhla.Simulate(ctx, nil, mhla.CacheConfig{}); return err }},
		{"Search", func() error { _, err := mhla.Search(ctx, nil, nil); return err }},
		{"Analyze", func() error { _, err := mhla.Analyze(nil); return err }},
		{"Extend", func() error { _, err := mhla.Extend(nil); return err }},
		{"ExtendWithWrites", func() error { _, err := mhla.ExtendWithWrites(nil); return err }},
		{"SimulateTrace", func() error { _, err := mhla.SimulateTrace(nil, 0); return err }},
		{"SimulateDMA", func() error { _, err := mhla.SimulateDMA(nil); return err }},
		{"Layout", func() error { _, err := mhla.Layout(nil); return err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := c.call(); err == nil {
				t.Errorf("%s(nil) returned no error", c.name)
			}
		})
	}
}
