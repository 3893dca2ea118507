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

// TestOptionsValidateTyped: invalid option values must be rejected
// with a typed *OptionError naming the field, instead of the silent
// clamping earlier versions applied.
func TestOptionsValidateTyped(t *testing.T) {
	base := assign.Options{}
	cases := []struct {
		name   string
		mutate func(o *assign.Options)
		field  string
	}{
		{"negative workers", func(o *assign.Options) { o.Workers = -1 }, "Workers"},
		{"negative max states", func(o *assign.Options) { o.MaxStates = -10 }, "MaxStates"},
		{"unknown engine", func(o *assign.Options) { o.Engine = assign.Engine("nope") }, "Engine"},
		{"negative deadline", func(o *assign.Options) { o.Deadline = -1 }, "Deadline"},
		{"unknown objective", func(o *assign.Options) { o.Objective = assign.Objective(-1) }, "Objective"},
		{"unknown policy", func(o *assign.Options) { o.Policy = reuse.Policy(7) }, "Policy"},
	}
	sc := progen.Generate(3)
	an, err := reuse.Analyze(sc.Program)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			opts := base
			c.mutate(&opts)
			err := opts.Validate()
			var oe *assign.OptionError
			if !errors.As(err, &oe) {
				t.Fatalf("Validate returned %v, want *OptionError", err)
			}
			if oe.Field != c.field {
				t.Errorf("rejected field %q, want %q", oe.Field, c.field)
			}
			if oe.Error() == "" {
				t.Error("empty error message")
			}
			// Search must reject the same way, before touching any
			// engine.
			if _, err := assign.Search(context.Background(), workspace.FromAnalysis(an), sc.Platform, opts); !errors.As(err, &oe) {
				t.Errorf("Search returned %v, want *OptionError", err)
			}
		})
	}
	t.Run("nil workspace", func(t *testing.T) {
		_, err := assign.Search(context.Background(), nil, sc.Platform, base)
		var oe *assign.OptionError
		if !errors.As(err, &oe) || oe.Field != "Workspace" {
			t.Errorf("Search(nil workspace) = %v, want *OptionError{Field: Workspace}", err)
		}
	})
}

// TestOptionsZeroStillDefaults: zero counts keep meaning "use the
// default" — only negatives and unknown enums are errors — and the
// zero value is the paper configuration, in-place sizing included.
func TestOptionsZeroStillDefaults(t *testing.T) {
	var zero assign.Options
	if err := zero.Validate(); err != nil {
		t.Fatalf("zero options rejected: %v", err)
	}
	sc := progen.Generate(3)
	an, err := reuse.Analyze(sc.Program)
	if err != nil {
		t.Fatal(err)
	}
	res, err := assign.Search(context.Background(), workspace.FromAnalysis(an), sc.Platform, zero)
	if err != nil {
		t.Fatalf("zero options search failed: %v", err)
	}
	if res.Assignment == nil || !res.Complete {
		t.Fatalf("zero options search incomplete: %+v", res)
	}
	if !res.Assignment.InPlace || res.Engine != assign.Greedy {
		t.Errorf("zero options searched in-place=%v with %v, want in-place greedy", res.Assignment.InPlace, res.Engine)
	}
}

// TestIncumbentForeignWorkspaceRejected: a warm-start incumbent built
// over a different compiled workspace must be rejected with a typed
// *OptionError before any engine runs — its decisions would be
// replayed against the wrong decision tables.
func TestIncumbentForeignWorkspaceRejected(t *testing.T) {
	sc := progen.Generate(3)
	other := progen.Generate(5)
	opts := sc.Options
	opts.Engine = assign.BranchBound

	an, err := reuse.Analyze(sc.Program)
	if err != nil {
		t.Fatal(err)
	}
	ws := workspace.FromAnalysis(an)
	oan, err := reuse.Analyze(other.Program)
	if err != nil {
		t.Fatal(err)
	}
	ores, err := assign.Search(context.Background(), workspace.FromAnalysis(oan), other.Platform, opts)
	if err != nil {
		t.Fatalf("other search: %v", err)
	}

	opts.Incumbent = ores.Assignment
	_, err = assign.Search(context.Background(), ws, sc.Platform, opts)
	var oe *assign.OptionError
	if !errors.As(err, &oe) {
		t.Fatalf("foreign incumbent returned %v, want *OptionError", err)
	}
	if oe.Field != "Incumbent" {
		t.Errorf("rejected field %q, want %q", oe.Field, "Incumbent")
	}

	// The same workspace is fine — even under a different platform
	// (the incumbent is re-validated and re-scored).
	own, err := assign.Search(context.Background(), ws, sc.Platform, func() assign.Options {
		o := sc.Options
		o.Engine = assign.BranchBound
		return o
	}())
	if err != nil {
		t.Fatalf("own search: %v", err)
	}
	opts.Incumbent = own.Assignment
	if _, err := assign.Search(context.Background(), ws, sc.Platform, opts); err != nil {
		t.Errorf("same-workspace incumbent rejected: %v", err)
	}
}
