package assign_test

import (
	"errors"
	"testing"

	"mhla/internal/assign"
)

// TestRegistryBuiltins pins the engine table: exactly the five
// built-in names in sorted listing order, and the capability flags
// the transport layers and the differential harness dispatch on.
func TestRegistryBuiltins(t *testing.T) {
	want := []assign.EngineInfo{
		{Name: assign.BranchBound, Exact: true, Deterministic: true},
		{Name: assign.Exhaustive, Exact: true, Deterministic: true},
		{Name: assign.Greedy, Deterministic: true},
		{Name: assign.Stochastic, Anytime: true, Deterministic: true, UsesSeed: true},
		{Name: assign.Portfolio, Anytime: true, Deterministic: true, UsesSeed: true},
	}
	infos := assign.Engines()
	if len(infos) != len(want) {
		t.Fatalf("Engines() lists %d engines, want %d: %+v", len(infos), len(want), infos)
	}
	for i, info := range infos {
		if info.Summary == "" {
			t.Errorf("engine %q has no summary", info.Name)
		}
		info.Summary = ""
		if info != want[i] {
			t.Errorf("Engines()[%d] = %+v, want %+v", i, info, want[i])
		}
	}
}

// TestRegistryLookup: "" normalizes to greedy, known names resolve,
// unknown names fail with the typed *OptionError naming the Engine
// field — the same rejection Options.Validate reports.
func TestRegistryLookup(t *testing.T) {
	info, fn, err := assign.LookupEngine("")
	if err != nil || info.Name != assign.Greedy || fn == nil {
		t.Errorf(`LookupEngine("") = %+v, %v; want greedy`, info, err)
	}
	if _, _, err := assign.LookupEngine(assign.Portfolio); err != nil {
		t.Errorf("LookupEngine(portfolio): %v", err)
	}
	_, _, err = assign.LookupEngine("quantum")
	var oe *assign.OptionError
	if !errors.As(err, &oe) || oe.Field != "Engine" {
		t.Errorf("LookupEngine(quantum) = %v, want *OptionError{Field: Engine}", err)
	}
}
