package mhla_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mhla/internal/apps"
	"mhla/pkg/mhla"
)

// reuseProgram is a small kernel with obvious data reuse: a lookup
// table scanned repeatedly.
func reuseProgram() *mhla.Program {
	p := mhla.NewProgram("reuse")
	tbl := p.NewInput("tbl", 2, 64)
	out := p.NewOutput("out", 2, 32)
	p.AddBlock("scan",
		mhla.For("rep", 32,
			mhla.For("i", 64,
				mhla.Load(tbl, mhla.Idx("i")),
				mhla.Work(2),
			),
			mhla.Store(out, mhla.Idx("rep")),
		),
	)
	return p
}

// hugeProgram builds a search space far beyond what the exhaustive
// engine can finish in test time: many independent arrays, each with
// a multi-level reuse chain, on a three-level hierarchy. The
// cancellation tests rely on the search never completing on its own.
func hugeProgram() *mhla.Program {
	p := mhla.NewProgram("huge")
	for i := 0; i < 12; i++ {
		name := fmt.Sprintf("t%02d", i)
		tbl := p.NewInput(name, 2, 64, 64)
		out := p.NewOutput("o"+name, 2, 64)
		p.AddBlock("b"+name,
			mhla.For("r", 64,
				mhla.For("i", 64,
					mhla.For("j", 64,
						mhla.Load(tbl, mhla.Idx("i"), mhla.Idx("j")),
						mhla.Work(1),
					),
				),
				mhla.Store(out, mhla.Idx("r")),
			),
		)
	}
	return p
}

func testApp(t *testing.T, name string) (*mhla.Program, int64) {
	t.Helper()
	app, err := apps.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return app.Build(apps.Test), app.L1
}

func TestRunDefaults(t *testing.T) {
	res, err := mhla.Run(context.Background(), reuseProgram())
	if err != nil {
		t.Fatal(err)
	}
	if res.Platform == nil || res.Platform.OnChipCapacity() != mhla.DefaultL1 {
		t.Fatalf("default platform not TwoLevel(%d): %v", mhla.DefaultL1, res.Platform)
	}
	if res.Assignment == nil || res.Plan == nil || res.Analysis == nil {
		t.Fatalf("incomplete result: %+v", res)
	}
	if res.MHLA.Energy > res.Original.Energy {
		t.Errorf("MHLA energy %v worse than original %v", res.MHLA.Energy, res.Original.Energy)
	}
	if res.TE.Cycles > res.MHLA.Cycles {
		t.Errorf("TE cycles %d worse than MHLA %d", res.TE.Cycles, res.MHLA.Cycles)
	}
	if res.Ideal.Cycles > res.TE.Cycles {
		t.Errorf("ideal cycles %d worse than TE %d", res.Ideal.Cycles, res.TE.Cycles)
	}
}

func TestWithoutTE(t *testing.T) {
	res, err := mhla.Run(context.Background(), reuseProgram(), mhla.WithL1(1024), mhla.WithoutTE())
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Applicable {
		t.Error("WithoutTE left the plan applicable")
	}
	if res.TE.Cycles != res.MHLA.Cycles || res.TE.Energy != res.MHLA.Energy {
		t.Errorf("WithoutTE: TE point %+v differs from MHLA %+v", res.TE, res.MHLA)
	}
}

func TestNoDMAPlatform(t *testing.T) {
	res, err := mhla.Run(context.Background(), reuseProgram(),
		mhla.WithPlatform(mhla.TwoLevelNoDMA(1024)))
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Applicable {
		t.Error("TE plan applicable without a DMA engine")
	}
	if res.TE.Cycles != res.MHLA.Cycles || res.TE.Energy != res.MHLA.Energy {
		t.Errorf("no-DMA: TE point %+v differs from MHLA %+v", res.TE, res.MHLA)
	}
}

// TestEngineSelection checks the engine option is honored: the exact
// engines agree with each other and are no worse than greedy.
func TestEngineSelection(t *testing.T) {
	prog, l1 := testApp(t, "durbin")
	ctx := context.Background()
	run := func(e mhla.Engine) *mhla.Result {
		res, err := mhla.Run(ctx, prog, mhla.WithL1(l1), mhla.WithEngine(e))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	greedy := run(mhla.Greedy)
	bnb := run(mhla.BnB)
	exhaustive := run(mhla.Exhaustive)
	if bnb.MHLA.Energy != exhaustive.MHLA.Energy {
		t.Errorf("BnB energy %v != exhaustive %v", bnb.MHLA.Energy, exhaustive.MHLA.Energy)
	}
	if bnb.MHLA.Energy > greedy.MHLA.Energy {
		t.Errorf("optimal BnB energy %v worse than greedy %v", bnb.MHLA.Energy, greedy.MHLA.Energy)
	}
	if bnb.SearchStates >= exhaustive.SearchStates {
		t.Errorf("pruning explored %d states, exhaustive %d", bnb.SearchStates, exhaustive.SearchStates)
	}
}

// TestObjectiveSelection checks the objective option is honored: with
// an exact engine, the time-optimal run cannot be slower than the
// energy-optimal one, and vice versa for energy.
func TestObjectiveSelection(t *testing.T) {
	prog, l1 := testApp(t, "sobel")
	ctx := context.Background()
	run := func(o mhla.Objective) *mhla.Result {
		res, err := mhla.Run(ctx, prog, mhla.WithL1(l1), mhla.WithEngine(mhla.BnB), mhla.WithObjective(o))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	byEnergy := run(mhla.Energy)
	byTime := run(mhla.Time)
	if byTime.MHLA.Cycles > byEnergy.MHLA.Cycles {
		t.Errorf("time-optimal %d cycles slower than energy-optimal %d",
			byTime.MHLA.Cycles, byEnergy.MHLA.Cycles)
	}
	if byEnergy.MHLA.Energy > byTime.MHLA.Energy {
		t.Errorf("energy-optimal %v pJ above time-optimal %v",
			byEnergy.MHLA.Energy, byTime.MHLA.Energy)
	}
}

// TestPolicySelection checks the refetch ablation can only lose
// energy against slide under an optimal engine.
func TestPolicySelection(t *testing.T) {
	prog, l1 := testApp(t, "sobel")
	ctx := context.Background()
	slide, err := mhla.Run(ctx, prog, mhla.WithL1(l1), mhla.WithEngine(mhla.BnB))
	if err != nil {
		t.Fatal(err)
	}
	refetch, err := mhla.Run(ctx, prog, mhla.WithL1(l1), mhla.WithEngine(mhla.BnB),
		mhla.WithPolicy(mhla.Refetch))
	if err != nil {
		t.Fatal(err)
	}
	if slide.MHLA.Energy > refetch.MHLA.Energy {
		t.Errorf("slide energy %v worse than refetch %v", slide.MHLA.Energy, refetch.MHLA.Energy)
	}
}

// TestWithProgress: both the compiling path and the WithWorkspace
// path report the same phase sequence, plus search snapshots.
func TestWithProgress(t *testing.T) {
	prog := reuseProgram()
	ws, err := mhla.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		opts []mhla.Option
	}{
		{"compile", nil},
		{"workspace", []mhla.Option{mhla.WithWorkspace(ws)}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var phases []mhla.Phase
			var searchSnapshots int
			opts := append([]mhla.Option{mhla.WithL1(1024),
				mhla.WithProgress(func(p mhla.Progress) {
					if p.Engine == "" {
						phases = append(phases, p.Phase)
					} else {
						searchSnapshots++
					}
				})}, c.opts...)
			if _, err := mhla.Run(context.Background(), prog, opts...); err != nil {
				t.Fatal(err)
			}
			want := []mhla.Phase{mhla.PhaseAnalyze, mhla.PhaseAssign, mhla.PhaseExtend, mhla.PhaseEvaluate}
			if len(phases) != len(want) {
				t.Fatalf("phases %v, want %v", phases, want)
			}
			for i := range want {
				if phases[i] != want[i] {
					t.Fatalf("phases %v, want %v", phases, want)
				}
			}
			if searchSnapshots == 0 {
				t.Error("no search progress snapshots delivered")
			}
		})
	}
}

func TestRunPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := mhla.Run(ctx, reuseProgram()); err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestRunCancelPromptly proves a long exact search aborts quickly on
// cancellation instead of running to completion: the huge program's
// exhaustive space takes far longer than the test allows.
func TestRunCancelPromptly(t *testing.T) {
	prog := hugeProgram()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := mhla.Run(ctx, prog,
		mhla.WithPlatform(mhla.ThreeLevel(4096, 32768)),
		mhla.WithEngine(mhla.Exhaustive), mhla.WithMaxStates(1<<40))
	elapsed := time.Since(start)
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestBnBCancelPromptly covers the pruning engine on the same space.
func TestBnBCancelPromptly(t *testing.T) {
	prog := hugeProgram()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := mhla.Run(ctx, prog,
		mhla.WithPlatform(mhla.ThreeLevel(4096, 32768)),
		mhla.WithEngine(mhla.BnB), mhla.WithMaxStates(1<<40))
	elapsed := time.Since(start)
	if err != context.DeadlineExceeded {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestSweepCancelPromptly covers the sweep path: cancellation between
// or inside sweep points surfaces ctx.Err().
func TestSweepCancelPromptly(t *testing.T) {
	prog := hugeProgram()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := mhla.SweepL1(ctx, prog, nil, mhla.WithEngine(mhla.Exhaustive), mhla.WithMaxStates(1<<40))
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if err != context.DeadlineExceeded {
		t.Fatalf("got %v, want context.DeadlineExceeded", err)
	}
}

func TestSearchStandalone(t *testing.T) {
	prog, l1 := testApp(t, "durbin")
	an, err := mhla.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	sr, err := mhla.Search(context.Background(), an, mhla.TwoLevel(l1), mhla.WithEngine(mhla.BnB))
	if err != nil {
		t.Fatal(err)
	}
	if !sr.Complete {
		t.Error("BnB incomplete on a test-scale app")
	}
	if sr.Cost.Energy > sr.Baseline.Energy {
		t.Errorf("search energy %v worse than baseline %v", sr.Cost.Energy, sr.Baseline.Energy)
	}
}

// TestSearchNilPlatform checks the platform options back a nil plat
// argument instead of panicking inside validation.
func TestSearchNilPlatform(t *testing.T) {
	prog, l1 := testApp(t, "durbin")
	an, err := mhla.Analyze(prog)
	if err != nil {
		t.Fatal(err)
	}
	snapshots := 0
	sr, err := mhla.Search(context.Background(), an, nil,
		mhla.WithL1(l1),
		mhla.WithProgress(func(p mhla.Progress) { snapshots++ }))
	if err != nil {
		t.Fatal(err)
	}
	if sr.Cost.Energy > sr.Baseline.Energy {
		t.Errorf("search energy %v worse than baseline %v", sr.Cost.Energy, sr.Baseline.Energy)
	}
	if snapshots == 0 {
		t.Error("WithProgress delivered no snapshots through Search")
	}
}

// TestSweepOptions checks SweepL1 honors progress and TE options
// rather than silently dropping them.
func TestSweepOptions(t *testing.T) {
	prog, _ := testApp(t, "sobel")
	snapshots := 0
	sw, err := mhla.SweepL1(context.Background(), prog, []int64{512, 1024},
		mhla.WithoutTE(),
		mhla.WithProgress(func(p mhla.Progress) { snapshots++ }))
	if err != nil {
		t.Fatal(err)
	}
	if snapshots == 0 {
		t.Error("WithProgress delivered no snapshots through SweepL1")
	}
	for _, pt := range sw.Points {
		if pt.Result.Plan.Applicable {
			t.Errorf("size %d: WithoutTE left the plan applicable", pt.L1)
		}
	}
}

// TestPartitionProgress: Partition streams the same progress as
// SweepL1 does for each task's non-zero grid sizes — the four phase
// entries once per point plus the engine snapshots — and nothing for
// the zero partition.
func TestPartitionProgress(t *testing.T) {
	ctx := context.Background()
	var tasks []mhla.Task
	for _, name := range []string{"durbin", "sobel"} {
		prog, _ := testApp(t, name)
		tasks = append(tasks, mhla.Task{Name: name, Program: prog})
	}
	sizes := []int64{256, 512, 1024} // the non-zero grid of a 1024-byte budget
	for _, e := range []mhla.Engine{mhla.Greedy, mhla.BnB} {
		t.Run(string(e), func(t *testing.T) {
			var got, want []mhla.Progress
			if _, err := mhla.Partition(ctx, tasks, 1024, mhla.WithWorkers(1), mhla.WithEngine(e),
				mhla.WithProgress(func(p mhla.Progress) { got = append(got, p) })); err != nil {
				t.Fatal(err)
			}
			for _, task := range tasks {
				if _, err := mhla.SweepL1(ctx, task.Program, sizes, mhla.WithWorkers(1), mhla.WithEngine(e),
					mhla.WithProgress(func(p mhla.Progress) { want = append(want, p) })); err != nil {
					t.Fatal(err)
				}
			}
			phases := map[mhla.Phase]int{}
			for _, p := range got {
				if p.Engine == "" {
					phases[p.Phase]++
				}
			}
			for _, ph := range []mhla.Phase{mhla.PhaseAnalyze, mhla.PhaseAssign, mhla.PhaseExtend, mhla.PhaseEvaluate} {
				if n := phases[ph]; n != len(tasks)*len(sizes) {
					t.Errorf("phase %s entered %d times, want %d", ph, n, len(tasks)*len(sizes))
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("Partition progress differs from the per-task sweeps:\n got %v\nwant %v", got, want)
			}
		})
	}
}

func TestParseHelpers(t *testing.T) {
	if o, err := mhla.ParseObjective("edp"); err != nil || o != mhla.EDP {
		t.Errorf("ParseObjective(edp) = %v, %v", o, err)
	}
	if e, err := mhla.ParseEngine("bnb"); err != nil || e != mhla.BnB {
		t.Errorf("ParseEngine(bnb) = %v, %v", e, err)
	}
	if p, err := mhla.ParsePolicy("refetch"); err != nil || p != mhla.Refetch {
		t.Errorf("ParsePolicy(refetch) = %v, %v", p, err)
	}
	if _, err := mhla.ParseObjective("bogus"); err == nil {
		t.Error("ParseObjective accepted bogus")
	}
	if _, err := mhla.ParseEngine("bogus"); err == nil {
		t.Error("ParseEngine accepted bogus")
	}
	if _, err := mhla.ParsePolicy("bogus"); err == nil {
		t.Error("ParsePolicy accepted bogus")
	}
}
