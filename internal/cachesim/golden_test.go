package cachesim

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"testing"

	"mhla/internal/apps"
	"mhla/internal/energy"
	"mhla/internal/platform"
	"mhla/internal/workspace"
)

// goldenFile holds one line per replay: "<app> <platform> <variant>
// <sha256 of Result.JSON>". The digests were recorded from the
// map-keyed replay the slot-indexed one replaced, so any drift in what
// the simulator computes — counts, cycles or a single energy bit —
// fails here.
const goldenFile = "testdata/simulate_golden.txt"

// goldenVariants mirrors the /v1/simulate mix — no cache, plain LRU and
// both prefetchers into an 8-entry buffer arriving 4 accesses late —
// plus "window": a degree-2 next-line prefetcher whose 3-entry
// in-flight window fills and whose entries a late demand overtakes.
var goldenVariants = []string{"anchor", "lru", "nextline", "stride", "window"}

func goldenConfig(variant string, plat *platform.Platform) Config {
	switch variant {
	case "anchor":
		return Config{}
	case "lru":
		return ConfigFor(plat, 0, 0)
	}
	cfg := ConfigFor(plat, 0, 0)
	for i := range cfg.Levels {
		cfg.Levels[i].Prefetcher = PrefetchNextLine
		if variant == "stride" {
			cfg.Levels[i].Prefetcher = PrefetchStride
		}
		cfg.Levels[i].PrefetchEntries, cfg.Levels[i].PrefetchLatency = 8, 4
		if variant == "window" {
			cfg.Levels[i].PrefetchEntries, cfg.Levels[i].PrefetchLatency, cfg.Levels[i].PrefetchDegree = 3, 6, 2
		}
	}
	return cfg
}

// goldenLines replays the nine apps at test scale through every
// variant on the figure platform (one cache level) and on a three-level
// platform (two cache levels, so write-backs into a parent cache and
// prefetch sources below L1 are covered too).
func goldenLines(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, app := range apps.All() {
		ws, err := workspace.Compile(app.Build(apps.Test))
		if err != nil {
			t.Fatalf("%s: %v", app.Name, err)
		}
		for _, plat := range []*platform.Platform{energy.TwoLevel(app.L1), energy.ThreeLevel(app.L1, 4*app.L1)} {
			for _, variant := range goldenVariants {
				res, err := Simulate(context.Background(), ws, plat, goldenConfig(variant, plat))
				if err != nil {
					t.Fatalf("%s/%s/%s: %v", app.Name, plat.Name, variant, err)
				}
				body, err := res.JSON()
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(body)
				lines = append(lines, fmt.Sprintf("%s %s %s %s", app.Name, plat.Name, variant, hex.EncodeToString(sum[:])))
			}
		}
	}
	return lines
}

// TestSimulateGolden pins the JSON bytes of every replay in goldenFile.
func TestSimulateGolden(t *testing.T) {
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
		t.Fatalf("%d replays, %s has %d lines", len(got), goldenFile, len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("replay %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
