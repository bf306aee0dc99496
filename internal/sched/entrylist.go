package sched

import (
	"fmt"
	"math"
)

// EntryList maintains one resource's candidate entries in service order —
// pinned occupants first (by deadline among themselves), then the rest in
// non-decreasing deadline, ties in insertion order — which is exactly the
// FeasibleSorted precondition. It also counts entries released after the
// activation time (a predicted or future fixed job): while that count is
// zero, feasibility is the allocation-free cumulative scan; otherwise the
// full EDF simulation runs. EntryList is the shared incremental substrate
// of the heuristic's and the branch-and-bound solver's hot paths: both
// keep per-resource lists alive across trial insert/remove pairs instead
// of rebuilding slices per probe.
//
// A well-formed simulation state has at most one pinned occupant per
// resource, but the solvers accept arbitrary Problems, so the list keeps
// the pinned group ordered rather than assuming it is a single entry.
//
// The zero value is an empty list. An EntryList is not safe for concurrent
// use.
type EntryList struct {
	entries []Entry
	future  int
	pinned  int // length of the pinned prefix group
}

// Reset empties the list, retaining capacity.
func (l *EntryList) Reset() {
	l.entries = l.entries[:0]
	l.future = 0
	l.pinned = 0
}

// Len returns the number of entries.
func (l *EntryList) Len() int { return len(l.entries) }

// Insert places e at its service position — within the pinned prefix
// group if it is pinned, after the group otherwise, in both cases after
// all group entries with a deadline not exceeding its own — and returns
// that position for the matching Remove. t is the activation time, used to
// classify future releases.
func (l *EntryList) Insert(t float64, e Entry) int {
	s := l.entries
	lo, hi := l.pinned, len(s)
	if e.PinnedFirst {
		lo, hi = 0, l.pinned
		l.pinned++
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s[mid].Deadline > e.Deadline {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	s = append(s, Entry{})
	copy(s[lo+1:], s[lo:])
	s[lo] = e
	l.entries = s
	if e.ReadyAt > t+Eps {
		l.future++
	}
	return lo
}

// Remove undoes the Insert that returned pos. t must be the activation
// time passed to Insert.
func (l *EntryList) Remove(t float64, pos int) {
	s := l.entries
	if s[pos].ReadyAt > t+Eps {
		l.future--
	}
	if s[pos].PinnedFirst {
		l.pinned--
	}
	copy(s[pos:], s[pos+1:])
	l.entries = s[:len(s)-1]
}

// Probe is one solver's context for EntryList.Feasible: the EDF scratch
// the simulation runs on, the optional cross-activation feasibility cache
// and the cache's probe counts — lookups answered (Hits) and not (Misses),
// and stores that overwrote another key's verdict (Evictions). The owner
// adds the counts to its telemetry counters once per solve and zeroes
// them. The zero value probes directly, with no cache. A Probe is not
// safe for concurrent use.
type Probe struct {
	Cache                   *FeasCache
	Hits, Misses, Evictions int64
	edf                     EDFScratch
}

// Feasible reports whether the list is EDF-schedulable on its resource
// from time t: the allocation-free sorted cumulative scan while no future
// release is present, the EDF simulation on pr's scratch otherwise. A nil
// pr probes on per-call buffers.
//
// A cache on pr fronts the EDF simulation only: the list's fingerprint at
// t, computed from the entries on demand, keys a lookup, and only a miss
// simulates, storing the verdict. The cumulative scan is O(entries) over
// a contiguous slice and cheaper than the table's random read, so a list
// without future releases never touches the cache. A cached verdict is
// the verdict the simulation computed for an identical normalised entry
// multiset, so the cache never changes a caller's decisions (modulo
// 128-bit fingerprint collisions, which the exact solver's cache accepts
// as well).
//
// A non-nil v receives the explained verdict for the provenance plane —
// the tightest slack, the deadline that broke and the path that decided;
// an explained probe neither reads nor writes the cache.
func (l *EntryList) Feasible(preemptable bool, t float64, pr *Probe, v *FeasVerdict) bool {
	var s *EDFScratch
	if pr != nil {
		s = &pr.edf
	}
	if pr == nil || pr.Cache == nil || v != nil || l.future == 0 {
		return l.check(preemptable, t, s, v)
	}
	fp := l.fingerprint(preemptable, t)
	if ok, hit := pr.Cache.Lookup(fp); hit {
		pr.Hits++
		return ok
	}
	pr.Misses++
	ok := l.check(preemptable, t, s, nil)
	if pr.Cache.Store(fp, ok) {
		pr.Evictions++
	}
	return ok
}

// check is the uncached probe of Feasible.
func (l *EntryList) check(preemptable bool, t float64, s *EDFScratch, v *FeasVerdict) bool {
	if v == nil {
		if l.future == 0 {
			return FeasibleSorted(t, l.entries)
		}
		return ResourceFeasible(preemptable, t, l.entries, s)
	}
	*v = FeasVerdict{Feasible: true, Slack: math.Inf(1), EDFPath: l.future > 0}
	if l.future == 0 {
		feasibleSorted(t, l.entries, v)
	} else {
		simulateEDF(preemptable, t, l.entries, s.rems(len(l.entries)), nil, v)
	}
	if math.IsInf(v.Slack, 1) {
		v.Slack = 0 // nothing served: trivially feasible, no margin to report
	}
	return v.Feasible
}

// Invariant checks the FeasibleSorted precondition — a pinned prefix
// group, deadlines non-decreasing within each group — and the
// future-release count against activation time t, returning a descriptive
// error on the first violation. It is meant for tests and debugging.
func (l *EntryList) Invariant(t float64) error {
	future, pinned := 0, 0
	for i, e := range l.entries {
		if e.PinnedFirst {
			if i != pinned {
				return fmt.Errorf("sched: pinned entry at position %d outside the prefix group [0,%d)", i, pinned)
			}
			pinned++
		}
		if i > 0 && l.entries[i-1].PinnedFirst == e.PinnedFirst && e.Deadline < l.entries[i-1].Deadline {
			return fmt.Errorf("sched: deadline order violated at %d: %v after %v",
				i, e.Deadline, l.entries[i-1].Deadline)
		}
		if e.ReadyAt > t+Eps {
			future++
		}
	}
	if future != l.future {
		return fmt.Errorf("sched: future count %d, want %d", l.future, future)
	}
	if pinned != l.pinned {
		return fmt.Errorf("sched: pinned count %d, want %d", l.pinned, pinned)
	}
	return nil
}
