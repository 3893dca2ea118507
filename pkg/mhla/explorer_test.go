package mhla_test

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"

	"mhla/internal/apps"
	"mhla/pkg/mhla"
)

// testGrid is a small app x size x objective grid at test scale; the
// apps are given unsorted to exercise the deterministic ordering.
func testGrid(t *testing.T) mhla.Grid {
	t.Helper()
	grid := mhla.Grid{
		L1Sizes:    []int64{1024, 512},
		Objectives: []mhla.Objective{mhla.Energy, mhla.Time},
	}
	for _, name := range []string{"sobel", "durbin"} {
		app, err := apps.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		grid.Apps = append(grid.Apps, mhla.GridApp{Name: app.Name, Program: app.Build(apps.Test)})
	}
	return grid
}

func TestGridJobsDeterministic(t *testing.T) {
	jobs := testGrid(t).Jobs()
	want := []string{
		"durbin/l1=512/energy", "durbin/l1=512/time",
		"durbin/l1=1024/energy", "durbin/l1=1024/time",
		"sobel/l1=512/energy", "sobel/l1=512/time",
		"sobel/l1=1024/energy", "sobel/l1=1024/time",
	}
	if len(jobs) != len(want) {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(want))
	}
	for i, j := range jobs {
		if j.Label != want[i] {
			t.Errorf("job %d label %q, want %q", i, j.Label, want[i])
		}
	}
}

// TestExplorerDeterministicOrder runs the same batch concurrently and
// sequentially and requires identical results in identical order —
// the property golden batch reports rely on.
func TestExplorerDeterministicOrder(t *testing.T) {
	jobs := testGrid(t).Jobs()
	ctx := context.Background()

	concurrent := mhla.Explorer{Options: []mhla.Option{mhla.WithWorkers(8)}}
	got, err := concurrent.Explore(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}
	sequential := mhla.Explorer{Options: []mhla.Option{mhla.WithWorkers(1)}}
	want, err := sequential.Explore(ctx, jobs)
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(jobs) {
		t.Fatalf("got %d results, want %d", len(got), len(jobs))
	}
	for i := range got {
		if got[i].Err != nil || want[i].Err != nil {
			t.Fatalf("job %q failed: %v / %v", jobs[i].Label, got[i].Err, want[i].Err)
		}
		if got[i].Label != jobs[i].Label {
			t.Errorf("result %d label %q, want %q", i, got[i].Label, jobs[i].Label)
		}
		g, w := got[i].Result, want[i].Result
		if g.MHLA.Cycles != w.MHLA.Cycles || g.MHLA.Energy != w.MHLA.Energy ||
			g.TE.Cycles != w.TE.Cycles {
			t.Errorf("job %q: concurrent %+v != sequential %+v", jobs[i].Label, g.MHLA, w.MHLA)
		}
	}
	if r1, r2 := mhla.BatchReport(got), mhla.BatchReport(want); r1 != r2 {
		t.Errorf("batch reports differ:\n%s\nvs\n%s", r1, r2)
	}
}

// TestExplorerPerJobError checks one failing job does not poison the
// batch: its error is captured in place, the rest succeed.
func TestExplorerPerJobError(t *testing.T) {
	jobs := testGrid(t).Jobs()
	bad := mhla.NewProgram("empty") // no blocks: fails validation
	jobs = append([]mhla.Job{{Label: "bad", Program: bad}}, jobs...)

	ex := mhla.Explorer{Options: []mhla.Option{mhla.WithWorkers(4)}}
	results, err := ex.Explore(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Err == nil {
		t.Error("invalid job reported no error")
	}
	for _, r := range results[1:] {
		if r.Err != nil {
			t.Errorf("job %q failed: %v", r.Label, r.Err)
		}
	}
	report := mhla.BatchReport(results)
	if !strings.Contains(report, "bad") || !strings.Contains(report, "error:") {
		t.Errorf("batch report lacks the error row:\n%s", report)
	}
	csv := mhla.BatchCSV(results)
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != len(results)+1 {
		t.Fatalf("batch CSV has %d lines, want %d:\n%s", len(lines), len(results)+1, csv)
	}
	if !strings.HasPrefix(lines[1], "bad,,") || !strings.Contains(lines[1], "no blocks") {
		t.Errorf("batch CSV error row malformed: %q", lines[1])
	}
}

// TestExplorerCancelPromptly cancels a batch of expensive jobs and
// requires a prompt ctx.Err() return with unfinished jobs marked.
func TestExplorerCancelPromptly(t *testing.T) {
	prog := hugeProgram()
	var jobs []mhla.Job
	for i := 0; i < 16; i++ {
		jobs = append(jobs, mhla.Job{
			Label:   "slow",
			Program: prog,
			Options: []mhla.Option{
				mhla.WithPlatform(mhla.ThreeLevel(4096, 32768)),
				mhla.WithEngine(mhla.Exhaustive),
				mhla.WithMaxStates(1 << 40),
			},
		})
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	ex := mhla.Explorer{Options: []mhla.Option{mhla.WithWorkers(2)}}
	results, err := ex.Explore(ctx, jobs)
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	if err != context.Canceled {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	failed := 0
	for i, r := range results {
		if r.Err != nil {
			failed++
		}
		// The one-of contract must hold for every job, including
		// those the cancelled feed loop never dispatched.
		if (r.Result == nil) == (r.Err == nil) {
			t.Errorf("job %d violates the one-of-Result-and-Err contract: %+v", i, r)
		}
	}
	if failed == 0 {
		t.Error("no job carries the cancellation error")
	}
}

// TestExplorerProgress checks completion callbacks arrive once per
// job with a consistent total.
func TestExplorerProgress(t *testing.T) {
	jobs := testGrid(t).Jobs()
	var mu sync.Mutex
	var calls int
	var totals []int
	ex := mhla.Explorer{
		Options: []mhla.Option{mhla.WithWorkers(4)},
		Progress: func(done, total int) {
			mu.Lock()
			calls++
			totals = append(totals, total)
			mu.Unlock()
		},
	}
	if _, err := ex.Explore(context.Background(), jobs); err != nil {
		t.Fatal(err)
	}
	if calls != len(jobs) {
		t.Errorf("got %d progress callbacks, want %d", calls, len(jobs))
	}
	for _, total := range totals {
		if total != len(jobs) {
			t.Errorf("progress total %d, want %d", total, len(jobs))
		}
	}
}
