package main

import (
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"mhla/internal/apps"
	"mhla/pkg/mhla"
)

// TestEngineListingGolden pins the -list-engines output byte-for-byte:
// sorted by engine name, stable column layout, one line per engine.
// Scripts parse this; regenerate with -update after intentional
// registry changes.
func TestEngineListingGolden(t *testing.T) {
	got := engineListing()
	golden := filepath.Join("testdata", "list_engines.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (set UPDATE_GOLDEN=1 to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("-list-engines output drifted from the golden file:\ngot:\n%swant:\n%s(set UPDATE_GOLDEN=1 to regenerate)", got, want)
	}
	// Stability across calls (the registry listing must be sorted, not
	// map-ordered).
	if again := engineListing(); again != got {
		t.Error("-list-engines output is not stable across calls")
	}
}

// TestSimulateWithoutOnChipLayer runs the -simulate mode on a valid
// platform whose first layer is off-chip: the derived cache hierarchy
// has no levels, so the report must skip the L1 geometry instead of
// indexing an empty level list.
func TestSimulateWithoutOnChipLayer(t *testing.T) {
	app, err := apps.ByName("durbin")
	if err != nil {
		t.Fatal(err)
	}
	plat := mhla.TwoLevel(1024)
	plat.Layers[0].OffChip = true
	if err := plat.Validate(); err != nil {
		t.Fatalf("platform should be valid: %v", err)
	}
	if err := runSimulate(context.Background(), app.Build(apps.Test), plat, simFlags{
		line: 32, ways: 4, prefetch: "all", entries: 8, degree: 1, latency: 4,
	}); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownScaleExits runs the command itself (this test binary,
// re-executed into main) with a misspelled -scale: it must exit 1 with
// the scale error instead of falling back to paper scale.
func TestUnknownScaleExits(t *testing.T) {
	if os.Getenv("MHLA_TEST_RUN_MAIN") == "1" {
		os.Args = []string{"mhla", "-app", "durbin", "-scale", "tset"}
		main()
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestUnknownScaleExits$")
	cmd.Env = append(os.Environ(), "MHLA_TEST_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() != 1 {
		t.Fatalf("mhla -scale tset: err = %v, want exit status 1; output:\n%s", err, out)
	}
	if want := `mhla: apps: unknown scale "tset"`; !strings.Contains(string(out), want) {
		t.Errorf("output lacks %q:\n%s", want, out)
	}
}
