package cli

import (
	"testing"
	"time"

	"predrm/internal/core"
)

// TestParseBudget: node counts and durations parse to their budget kind;
// non-positive or unparsable values are refused.
func TestParseBudget(t *testing.T) {
	for in, want := range map[string]core.Budget{
		"":      {},
		"20000": {Nodes: 20000},
		"5ms":   {Wall: 5 * time.Millisecond},
	} {
		if got, err := ParseBudget(in); err != nil || got != want {
			t.Errorf("ParseBudget(%q) = %+v, %v; want %+v", in, got, err, want)
		}
	}
	for _, in := range []string{"0", "-3", "-1s", "0s", "fast"} {
		if _, err := ParseBudget(in); err == nil {
			t.Errorf("ParseBudget(%q) accepted", in)
		}
	}
}

// TestSolverFactory: each engine name builds fresh instances; an unknown
// name is refused before any solver is built.
func TestSolverFactory(t *testing.T) {
	for _, name := range []string{"heuristic", "greedy", "milp"} {
		f, err := SolverFactory(name, true)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a, b := f(), f(); a == b {
			t.Errorf("%s: factory returned a shared instance", name)
		}
	}
	if _, err := SolverFactory("simplex", true); err == nil {
		t.Error("unknown engine accepted")
	}
}
