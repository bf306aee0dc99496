package sched

import (
	"sort"
	"testing"
	"testing/quick"

	"predrm/internal/rng"
)

// TestFeasibleSortedMatchesResourceFeasible cross-checks the branch-and-
// bound hot path against the general checker on synchronous-release entry
// sets.
func TestFeasibleSortedMatchesResourceFeasible(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		t0 := r.Uniform(0, 20)
		n := 1 + r.Intn(8)
		entries := make([]Entry, n)
		for i := range entries {
			rem := r.Uniform(0.5, 6)
			entries[i] = Entry{
				ReadyAt:  t0,
				Deadline: t0 + rem*r.Uniform(0.7, 4),
				Rem:      rem,
			}
		}
		// Sort ascending by deadline (no pinned entries here: that is the
		// preemptive-resource case).
		sort.Slice(entries, func(a, b int) bool { return entries[a].Deadline < entries[b].Deadline })
		want := ResourceFeasible(true, t0, entries, nil)
		got := FeasibleSorted(t0, entries)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestFeasibleSortedPinnedFirst checks the non-preemptable occupant case.
func TestFeasibleSortedPinnedFirst(t *testing.T) {
	// Pinned occupant (late deadline) first, then a tight entry that fits
	// only if the occupant is accounted first.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 30, Rem: 4, PinnedFirst: true},
		{ReadyAt: 0, Deadline: 10, Rem: 5},
	}
	if !FeasibleSorted(0, entries) {
		t.Fatal("feasible pinned layout rejected")
	}
	got := ResourceFeasible(false, 0, entries, nil)
	if !got {
		t.Fatal("ResourceFeasible disagrees on pinned layout")
	}
	// Tighten: the tight entry now misses behind the occupant.
	entries[1].Deadline = 8.5
	if FeasibleSorted(0, entries) {
		t.Fatal("infeasible pinned layout accepted")
	}
	if ResourceFeasible(false, 0, entries, nil) {
		t.Fatal("ResourceFeasible disagrees on infeasible pinned layout")
	}
}

// TestFeasibleSortedEmpty is the trivial case.
func TestFeasibleSortedEmpty(t *testing.T) {
	if !FeasibleSorted(5, nil) {
		t.Fatal("empty set must be feasible")
	}
}
