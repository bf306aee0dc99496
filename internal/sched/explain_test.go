package sched

import (
	"math"
	"testing"

	"predrm/internal/rng"
)

// referenceExplain derives the explained verdict the long way: the sorted
// cumulative scan run past the first miss when no future release is
// present, otherwise the full SimulateEDF schedule reduced to per-entry
// completion times (the latest segment end of each entry), then to the
// tightest slack and the lowest-indexed entry that missed.
func referenceExplain(preemptable bool, t float64, l *EntryList) FeasVerdict {
	entries := l.Entries()
	if l.Future() == 0 {
		v := FeasVerdict{Feasible: true, Slack: math.Inf(1)}
		finish := t
		for i := range entries {
			finish += entries[i].Rem
			if slack := entries[i].Deadline - finish; slack < v.Slack {
				v.Slack = slack
			}
			if v.Feasible && finish > entries[i].Deadline+Eps {
				v.Feasible = false
				v.BreachDeadline = entries[i].Deadline
			}
		}
		if math.IsInf(v.Slack, 1) {
			v.Slack = 0
		}
		return v
	}
	segs, feasible := SimulateEDF(preemptable, t, entries)
	v := FeasVerdict{Feasible: feasible, Slack: math.Inf(1), EDFPath: true}
	finish := make([]float64, len(entries))
	for _, s := range segs {
		if s.End > finish[s.Index] {
			finish[s.Index] = s.End
		}
	}
	for i := range entries {
		if finish[i] == 0 {
			continue // never served (zero demand)
		}
		slack := entries[i].Deadline - finish[i]
		if slack < v.Slack {
			v.Slack = slack
		}
		if slack < -Eps && v.BreachDeadline == 0 {
			v.BreachDeadline = entries[i].Deadline
		}
	}
	if math.IsInf(v.Slack, 1) {
		v.Slack = 0
	}
	return v
}

// TestFeasibleExplainMatchesFeasible fuzzes random entry populations on
// both resource kinds and checks the explained probe agrees with the
// hot-path verdict, reproduces the reference derivation field for field,
// and that an infeasible verdict always pins a broken deadline with
// negative slack.
func TestFeasibleExplainMatchesFeasible(t *testing.T) {
	r := rng.New(777)
	now := 10.0
	var pr Probe
	for trial := 0; trial < 4000; trial++ {
		var l EntryList
		for i, k := 0, r.Intn(7); i < k; i++ {
			l.Insert(now, randomEntry(r, now))
		}
		preempt := r.Float64() < 0.5
		want := l.Feasible(preempt, now, &pr, nil)
		var v FeasVerdict
		if got := l.Feasible(preempt, now, &pr, &v); got != v.Feasible {
			t.Fatalf("trial %d: explained probe returned %v, verdict says %v", trial, got, v.Feasible)
		}
		if v.Feasible != want {
			t.Fatalf("trial %d: explained verdict = %v, Feasible = %v (entries %+v, preempt %v)",
				trial, v.Feasible, want, l.Entries(), preempt)
		}
		if ref := referenceExplain(preempt, now, &l); v != ref {
			t.Fatalf("trial %d: verdict %+v, reference %+v (entries %+v, preempt %v)",
				trial, v, ref, l.Entries(), preempt)
		}
		if v.EDFPath != (l.Future() > 0) {
			t.Fatalf("trial %d: EDFPath = %v with %d future releases", trial, v.EDFPath, l.Future())
		}
		if !v.Feasible {
			if v.BreachDeadline == 0 {
				t.Fatalf("trial %d: infeasible verdict with no breach deadline: %+v", trial, v)
			}
			if v.Slack >= 0 {
				t.Fatalf("trial %d: infeasible verdict with slack %v", trial, v.Slack)
			}
		}
	}
}

// TestFeasibleExplainEmpty pins the trivial case: an empty list is
// feasible with zero reported slack.
func TestFeasibleExplainEmpty(t *testing.T) {
	var l EntryList
	var v FeasVerdict
	l.Feasible(true, 5, nil, &v)
	if !v.Feasible || v.Slack != 0 || v.BreachDeadline != 0 || v.EDFPath {
		t.Fatalf("empty-list verdict = %+v", v)
	}
}
