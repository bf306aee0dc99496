package sched

import (
	"math"
	"testing"
	"testing/quick"

	"predrm/internal/rng"
)

func segTotal(segs []Segment, idx int) float64 {
	var tot float64
	for _, s := range segs {
		if s.Index == idx {
			tot += s.End - s.Start
		}
	}
	return tot
}

func TestSimulateEDFEmpty(t *testing.T) {
	segs, ok := SimulateEDF(true, 0, nil)
	if !ok || segs != nil {
		t.Fatal("empty entry set must be trivially feasible")
	}
}

func TestSimulateEDFSingle(t *testing.T) {
	segs, ok := SimulateEDF(true, 10, []Entry{{ReadyAt: 10, Deadline: 15, Rem: 5}})
	if !ok {
		t.Fatal("exact-fit entry must be feasible")
	}
	if len(segs) != 1 || segs[0].Start != 10 || segs[0].End != 15 {
		t.Fatalf("segments = %+v", segs)
	}
}

func TestSimulateEDFDeadlineOrder(t *testing.T) {
	// Two ready entries: EDF must run the earlier deadline first.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 20, Rem: 5},
		{ReadyAt: 0, Deadline: 10, Rem: 5},
	}
	segs, ok := SimulateEDF(true, 0, entries)
	if !ok {
		t.Fatal("feasible set rejected")
	}
	if segs[0].Index != 1 || segs[1].Index != 0 {
		t.Fatalf("EDF order wrong: %+v", segs)
	}
}

func TestSimulateEDFMissesDeadline(t *testing.T) {
	entries := []Entry{
		{ReadyAt: 0, Deadline: 4, Rem: 3},
		{ReadyAt: 0, Deadline: 5, Rem: 3},
	}
	if _, ok := SimulateEDF(true, 0, entries); ok {
		t.Fatal("overloaded set accepted")
	}
}

func TestSimulateEDFPreemptionByRelease(t *testing.T) {
	// A long low-priority entry is running; a tighter one releases at 2 and
	// must preempt on a preemptable resource.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 20, Rem: 10},
		{ReadyAt: 2, Deadline: 6, Rem: 3},
	}
	segs, ok := SimulateEDF(true, 0, entries)
	if !ok {
		t.Fatalf("preemptive case must be feasible, segs=%+v", segs)
	}
	// Expect: [0: 0-2], [1: 2-5], [0: 5-13].
	want := []Segment{{0, 0, 2}, {1, 2, 5}, {0, 5, 13}}
	if len(segs) != len(want) {
		t.Fatalf("got %d segments %+v, want %+v", len(segs), segs, want)
	}
	for i := range want {
		if segs[i].Index != want[i].Index ||
			math.Abs(segs[i].Start-want[i].Start) > Eps ||
			math.Abs(segs[i].End-want[i].End) > Eps {
			t.Fatalf("segment %d = %+v, want %+v", i, segs[i], want[i])
		}
	}
}

func TestSimulateEDFNonPreemptiveBlocks(t *testing.T) {
	// Same scenario on a non-preemptable resource: the running entry blocks
	// the tight release, which then misses its deadline.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 20, Rem: 10},
		{ReadyAt: 2, Deadline: 6, Rem: 3},
	}
	segs, ok := SimulateEDF(false, 0, entries)
	if ok {
		t.Fatalf("non-preemptive blocking case must be infeasible, segs=%+v", segs)
	}
	// Entry 0 must have run to completion in one piece.
	if segTotal(segs, 0) != 10 || segs[0].Index != 0 || segs[0].End != 10 {
		t.Fatalf("non-preemptive run-to-completion violated: %+v", segs)
	}
}

func TestSimulateEDFNonPreemptiveFeasibleWaiting(t *testing.T) {
	// Non-preemptive but with enough slack: release waits and still makes it.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 20, Rem: 4},
		{ReadyAt: 2, Deadline: 10, Rem: 3},
	}
	segs, ok := SimulateEDF(false, 0, entries)
	if !ok {
		t.Fatalf("waiting case must be feasible: %+v", segs)
	}
	if segs[1].Index != 1 || segs[1].Start != 4 || segs[1].End != 7 {
		t.Fatalf("second entry misplaced: %+v", segs)
	}
}

func TestSimulateEDFPinnedFirst(t *testing.T) {
	// On a GPU the mid-execution occupant runs before a tighter-deadline
	// queued entry.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 30, Rem: 5, PinnedFirst: true},
		{ReadyAt: 0, Deadline: 10, Rem: 4},
	}
	segs, ok := SimulateEDF(false, 0, entries)
	if !ok {
		t.Fatalf("pinned case must be feasible: %+v", segs)
	}
	if segs[0].Index != 0 || segs[0].End != 5 || segs[1].Index != 1 || segs[1].End != 9 {
		t.Fatalf("pinned-first order violated: %+v", segs)
	}
}

func TestSimulateEDFIdleGap(t *testing.T) {
	// Only a future release: the schedule idles until it is ready.
	entries := []Entry{{ReadyAt: 5, Deadline: 9, Rem: 3}}
	segs, ok := SimulateEDF(true, 0, entries)
	if !ok || len(segs) != 1 || segs[0].Start != 5 || segs[0].End != 8 {
		t.Fatalf("idle gap handled wrong: %+v ok=%v", segs, ok)
	}
}

func TestSimulateEDFMergesContiguousSegments(t *testing.T) {
	// A release that does NOT preempt (later deadline) must not split the
	// running entry's segment.
	entries := []Entry{
		{ReadyAt: 0, Deadline: 10, Rem: 6},
		{ReadyAt: 2, Deadline: 30, Rem: 3},
	}
	segs, ok := SimulateEDF(true, 0, entries)
	if !ok {
		t.Fatal("feasible set rejected")
	}
	if len(segs) != 2 || segs[0].End != 6 {
		t.Fatalf("contiguous segments not merged: %+v", segs)
	}
}

func TestResourceFeasibleMatchesSimulation(t *testing.T) {
	// Property: the fast ResourceFeasible decision equals full simulation.
	r := rng.New(99)
	f := func(seedRaw uint64) bool {
		rr := rng.New(seedRaw ^ r.Uint64())
		n := 1 + rr.Intn(6)
		entries := make([]Entry, n)
		t0 := rr.Uniform(0, 10)
		for i := range entries {
			ready := t0
			if rr.Float64() < 0.3 {
				ready = t0 + rr.Uniform(0, 5)
			}
			rem := rr.Uniform(0.5, 5)
			entries[i] = Entry{
				ReadyAt:  ready,
				Deadline: ready + rem*rr.Uniform(0.8, 4),
				Rem:      rem,
			}
		}
		for _, preempt := range []bool{true, false} {
			_, simOK := SimulateEDF(preempt, t0, entries)
			if got := ResourceFeasible(preempt, t0, entries, nil); got != simOK {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestResourceFeasibleNecessaryCut(t *testing.T) {
	// A single entry that cannot fit its own window must be rejected even
	// without simulation.
	if ResourceFeasible(true, 0, []Entry{{ReadyAt: 4, Deadline: 6, Rem: 3}}, nil) {
		t.Fatal("entry with Rem > window accepted")
	}
}

func TestSimulateEDFWorkConservation(t *testing.T) {
	// Property: when feasible, every entry receives exactly Rem time and
	// segments never overlap.
	f := func(seed uint64) bool {
		rr := rng.New(seed)
		n := 1 + rr.Intn(5)
		entries := make([]Entry, n)
		for i := range entries {
			rem := rr.Uniform(0.5, 3)
			ready := rr.Uniform(0, 4)
			entries[i] = Entry{ReadyAt: ready, Deadline: ready + rem + rr.Uniform(5, 20), Rem: rem}
		}
		for _, preempt := range []bool{true, false} {
			segs, ok := SimulateEDF(preempt, 0, entries)
			if !ok {
				return false // generous deadlines: must be feasible
			}
			for i, e := range entries {
				if math.Abs(segTotal(segs, i)-e.Rem) > 1e-6 {
					return false
				}
			}
			for i := 1; i < len(segs); i++ {
				if segs[i].Start < segs[i-1].End-Eps {
					return false
				}
			}
			// No segment may start before its entry is ready.
			for _, s := range segs {
				if s.Start < entries[s.Index].ReadyAt-Eps {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
