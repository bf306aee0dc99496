package sched

import (
	"testing"

	"predrm/internal/rng"
)

// randomEntry draws an entry around activation time t: mostly ready now,
// sometimes a future release, sometimes pinned.
func randomEntry(r *rng.Rand, t float64) Entry {
	e := Entry{
		ReadyAt:  t,
		Deadline: t + r.Uniform(1, 100),
		Rem:      r.Uniform(0.2, 8),
	}
	if r.Float64() < 0.25 {
		e.ReadyAt = t + r.Uniform(0.1, 6)
	}
	if r.Float64() < 0.15 {
		e.PinnedFirst = true
	}
	return e
}

// TestEntryListInvariantProperty fuzzes arbitrary (non-LIFO) interleavings
// of Insert and Remove and asserts the FeasibleSorted precondition —
// pinned prefix group, non-decreasing deadlines per group — and the
// future-release count after every operation. Equal-deadline entries are
// also exercised to pin down the tie handling.
func TestEntryListInvariantProperty(t *testing.T) {
	r := rng.New(1234)
	now := 25.0
	var l EntryList
	for step := 0; step < 20000; step++ {
		switch {
		case l.Len() > 0 && r.Float64() < 0.45:
			l.Remove(now, r.Intn(l.Len()))
		default:
			e := randomEntry(r, now)
			if r.Float64() < 0.2 {
				e.Deadline = now + float64(1+r.Intn(5)) // force deadline ties
			}
			pos := l.Insert(now, e)
			if got := l.Entries()[pos]; got != e {
				t.Fatalf("step %d: entry at returned position %d is %+v, want %+v", step, pos, got, e)
			}
		}
		if err := l.Invariant(now); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
	}
}

// TestEntryListFeasibleMatchesResourceFeasible checks that the fast-path
// split of EntryList.Feasible (sorted cumulative scan vs full EDF
// simulation) always agrees with the order-insensitive ResourceFeasible
// reference on random populations, for both resource kinds.
func TestEntryListFeasibleMatchesResourceFeasible(t *testing.T) {
	r := rng.New(4321)
	now := 7.0
	for trial := 0; trial < 4000; trial++ {
		preemptable := r.Float64() < 0.5
		var l EntryList
		n := 1 + r.Intn(8)
		for i := 0; i < n; i++ {
			e := randomEntry(r, now)
			if preemptable {
				e.PinnedFirst = false
			}
			l.Insert(now, e)
		}
		var pr Probe
		got := l.Feasible(preemptable, now, &pr, nil)
		want := ResourceFeasible(preemptable, now, append([]Entry(nil), l.Entries()...), nil)
		if got != want {
			t.Fatalf("trial %d (preemptable=%v): Feasible=%v, ResourceFeasible=%v on %+v",
				trial, preemptable, got, want, l.Entries())
		}
	}
}

// TestResourceFeasibleScratchReuse verifies a reused scratch yields the
// same answers as fresh per-call buffers across differently sized checks.
func TestResourceFeasibleScratchReuse(t *testing.T) {
	r := rng.New(99)
	now := 3.0
	var s EDFScratch
	for trial := 0; trial < 2000; trial++ {
		n := 1 + r.Intn(10)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = randomEntry(r, now)
		}
		preemptable := r.Float64() < 0.5
		if got, want := ResourceFeasible(preemptable, now, entries, &s),
			ResourceFeasible(preemptable, now, entries, nil); got != want {
			t.Fatalf("trial %d: scratch %v, fresh %v", trial, got, want)
		}
	}
}

// benchEntries builds a representative per-resource entry load: size
// entries ready at t with staggered deadlines, optionally one future
// release (the predicted job) and one pinned occupant.
func benchEntries(size int, future, pinned bool, t float64) []Entry {
	entries := make([]Entry, 0, size)
	for i := 0; i < size; i++ {
		entries = append(entries, Entry{
			ReadyAt:  t,
			Deadline: t + 12 + 7*float64(i%5) + 0.3*float64(i),
			Rem:      2.5,
		})
	}
	if pinned {
		entries[0].PinnedFirst = true
	}
	if future {
		entries[len(entries)-1].ReadyAt = t + 1.5
	}
	return entries
}

func benchmarkResourceFeasible(b *testing.B, preemptable, future bool) {
	t := 5.0
	entries := benchEntries(8, future, !preemptable, t)
	var s EDFScratch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ResourceFeasible(preemptable, t, entries, &s)
	}
}

// BenchmarkResourceFeasible measures the feasibility probe on the four hot
// configurations: resource kind × whether a future (predicted) release
// forces the full EDF simulation instead of the cumulative fast path.
func BenchmarkResourceFeasible(b *testing.B) {
	b.Run("preemptable-allready", func(b *testing.B) { benchmarkResourceFeasible(b, true, false) })
	b.Run("preemptable-future", func(b *testing.B) { benchmarkResourceFeasible(b, true, true) })
	b.Run("nonpreemptable-allready", func(b *testing.B) { benchmarkResourceFeasible(b, false, false) })
	b.Run("nonpreemptable-future", func(b *testing.B) { benchmarkResourceFeasible(b, false, true) })
}

func benchmarkSimulateEDF(b *testing.B, preemptable, future bool) {
	t := 5.0
	entries := benchEntries(8, future, !preemptable, t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SimulateEDF(preemptable, t, entries)
	}
}

// BenchmarkSimulateEDF measures full schedule construction on the same
// four configurations, for comparison against the feasibility-only probe.
func BenchmarkSimulateEDF(b *testing.B) {
	b.Run("preemptable-allready", func(b *testing.B) { benchmarkSimulateEDF(b, true, false) })
	b.Run("preemptable-future", func(b *testing.B) { benchmarkSimulateEDF(b, true, true) })
	b.Run("nonpreemptable-allready", func(b *testing.B) { benchmarkSimulateEDF(b, false, false) })
	b.Run("nonpreemptable-future", func(b *testing.B) { benchmarkSimulateEDF(b, false, true) })
}

// BenchmarkFeasibleSorted measures the allocation-free cumulative scan the
// sorted entry lists unlock — the innermost check of both solvers.
func BenchmarkFeasibleSorted(b *testing.B) {
	t := 5.0
	entries := benchEntries(8, false, false, t)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FeasibleSorted(t, entries)
	}
}

// Entries returns the ordered entries. The slice is borrowed: it aliases
// the list's storage and is invalidated by the next Insert, Remove, or
// Reset.
func (l *EntryList) Entries() []Entry { return l.entries }

// Future returns the number of entries whose release lies after the
// activation time passed to Insert.
func (l *EntryList) Future() int { return l.future }
