package sim

import (
	"bufio"
	"cmp"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"maps"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/assign"
	"mhla/internal/energy"
	"mhla/internal/progen"
	"mhla/internal/workspace"
)

// goldenFile holds one line per trace: "<case> <sha256 of the
// result>". The digests pin every counted event bit for bit, where the
// analytic comparisons hold energy only to a tolerance.
const goldenFile = "testdata/trace_golden.txt"

// digest hashes a trace result: the per-layer access counts, the
// energy's float bits and every stream's bytes and count in key order.
func digest(res *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "layers %v energy %016x streams %d\n", res.LayerAccesses, math.Float64bits(res.Energy), len(res.TransferCount))
	keys := slices.SortedFunc(maps.Keys(res.TransferBytes), func(a, b assign.StreamKey) int {
		return cmp.Or(cmp.Compare(a.Chain, b.Chain), cmp.Compare(a.Level, b.Level), cmp.Compare(a.Class, b.Class))
	})
	for _, k := range keys {
		fmt.Fprintf(h, "%s %d %d\n", k, res.TransferBytes[k], res.TransferCount[k])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// goldenLines traces the greedy and branch-and-bound assignments of
// progen seeds 0–219 under each scenario's options, and the greedy
// assignment of the nine apps at test scale on the two-level figure
// platform.
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	trace := func(name string, a *assign.Assignment) {
		res, err := Trace(a, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		lines = append(lines, name+" "+digest(res))
	}
	for seed := int64(0); seed < 220; seed++ {
		sc := progen.Generate(seed)
		ws, err := workspace.Compile(sc.Program)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for _, engine := range []assign.Engine{assign.Greedy, assign.BranchBound} {
			opts := sc.Options
			opts.Engine = engine
			sr, err := assign.Search(context.Background(), ws, sc.Platform, opts)
			if err != nil {
				t.Fatalf("seed %d %s: %v", seed, engine, err)
			}
			trace(fmt.Sprintf("seed%d/%s", seed, engine), sr.Assignment)
		}
	}
	for _, app := range apps.All() {
		ws, err := workspace.Compile(app.Build(apps.Test))
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		sr, err := assign.Search(context.Background(), ws, energy.TwoLevel(app.L1), assign.Options{})
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		trace(app.Name, sr.Assignment)
	}
	return lines
}

// TestTraceGolden pins the digest of every trace in goldenFile.
func TestTraceGolden(t *testing.T) {
	f, err := os.Open(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := goldenLines(t)
	if len(got) != len(want) {
		t.Fatalf("%d traces, %s has %d lines", len(got), goldenFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("trace %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
