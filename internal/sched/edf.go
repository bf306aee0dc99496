package sched

// Eps is the absolute tolerance used in schedule arithmetic. Times in the
// simulated system are O(1..1e4), so 1e-9 is far below any meaningful gap.
const Eps = 1e-9

// Entry is one job proposed on one resource for a feasibility check.
type Entry struct {
	// ReadyAt is when the entry becomes available, never before the check
	// time. Real jobs are ready immediately; the predicted job at
	// max(s_p, t).
	ReadyAt float64
	// Deadline is the absolute deadline.
	Deadline float64
	// Rem is the execution demand on this resource, including migration
	// overhead (cpm).
	Rem float64
	// PinnedFirst marks the job currently executing on a non-preemptable
	// resource; it must be served before anything else there.
	PinnedFirst bool
}

// Segment is a contiguous piece of the constructed schedule: entry Index
// runs on the resource during [Start, End).
type Segment struct {
	Index      int
	Start, End float64
}

// SimulateEDF constructs the earliest-deadline-first schedule of entries on
// a single resource starting at time t and reports whether every entry
// meets its deadline. On preemptable resources EDF is preemptive (a release
// may preempt the running entry); on non-preemptable resources dispatch is
// non-preemptive: once an entry starts it runs to completion, and a
// PinnedFirst entry (already mid-execution) is served before all others.
//
// This event simulation is exactly the schedule the paper's MILP
// constraints (3)-(14) encode piecewise: EDF ordering per resource, the
// predicted task starting at max(s_p, q_i) when its deadline is latest, and
// the two-chunk preemption split otherwise.
//
// The returned segments describe the schedule even when infeasible (up to
// the point each entry completes); feasible is false as soon as any entry
// finishes past its deadline. Each call allocates its own segments and
// work buffer; Problem.Schedule runs the same simulation into a reusable
// ScheduleScratch.
func SimulateEDF(preemptable bool, t float64, entries []Entry) (segs []Segment, feasible bool) {
	if len(entries) == 0 {
		return nil, true
	}
	feasible = simulateEDF(preemptable, t, entries, make([]float64, len(entries)), &segs, nil)
	return segs, feasible
}

// ResourceFeasible reports whether entries are EDF-schedulable on a single
// resource from time t. It is SimulateEDF without schedule construction,
// plus cheap necessary-condition cuts, and is the hot path of every RM.
// With a reused non-nil scratch the check performs no allocations in
// steady state; a nil scratch means per-call buffers.
func ResourceFeasible(preemptable bool, t float64, entries []Entry, s *EDFScratch) bool {
	// Necessary condition: each entry alone must fit its window.
	for _, e := range entries {
		if e.Rem > e.Deadline-maxf(e.ReadyAt, t)+Eps {
			return false
		}
	}
	if len(entries) <= 1 {
		return true
	}
	if s == nil {
		s = new(EDFScratch)
	}
	// Fast path: all ready now, no pinned entry ordering concerns beyond
	// EDF — cumulative EDF check without simulation.
	for _, e := range entries {
		if e.ReadyAt > t+Eps {
			return simulateEDF(preemptable, t, entries, s.rems(len(entries)), nil, nil)
		}
	}
	return allReadyFeasible(preemptable, t, entries, s)
}

// allReadyFeasible checks EDF feasibility when every entry is ready at t.
// With synchronous release, preemptive and non-preemptive EDF coincide and
// feasibility is the cumulative-demand check over the deadline order — with
// the exception that a pinned entry is served first on non-preemptable
// resources. The service order is built in the scratch's index buffer with
// an insertion sort: entry counts per resource are small, and the stable
// in-place sort keeps the check allocation-free.
func allReadyFeasible(preemptable bool, t float64, entries []Entry, s *EDFScratch) bool {
	order := s.order[:0]
	if cap(order) < len(entries) {
		order = make([]int, 0, len(entries))
	}
	for i := range entries {
		order = append(order, i)
	}
	s.order = order
	for i := 1; i < len(order); i++ {
		for k := i; k > 0 && entryBefore(preemptable, &entries[order[k]], &entries[order[k-1]]); k-- {
			order[k], order[k-1] = order[k-1], order[k]
		}
	}
	finish := t
	for _, idx := range order {
		finish += entries[idx].Rem
		if finish > entries[idx].Deadline+Eps {
			return false
		}
	}
	return true
}

// entryBefore is the strict service order of allReadyFeasible: the pinned
// occupant of a non-preemptable resource first, then ascending deadline.
// Equal keys keep input order via the stable insertion sort.
func entryBefore(preemptable bool, a, b *Entry) bool {
	if !preemptable && a.PinnedFirst != b.PinnedFirst {
		return a.PinnedFirst
	}
	return a.Deadline < b.Deadline
}

// simulateEDF is the one EDF event simulation behind SimulateEDF,
// Problem.Schedule, ResourceFeasible and the explained probe. rem is its
// remaining-work buffer, one slot per entry. Both sinks are optional:
// segs receives the constructed schedule, appended into (*segs)[:0] so
// the caller's storage is reused, v the explained verdict (tightest
// completion slack, the first entry in index order that broke its
// deadline), whose Slack the caller initialises to +Inf. With either sink the simulation
// runs to the end; with neither it returns at the first deadline miss.
func simulateEDF(preemptable bool, t float64, entries []Entry, rem []float64, segs *[]Segment, v *FeasVerdict) bool {
	for i, e := range entries {
		rem[i] = e.Rem
	}
	var out []Segment // the segment sink's schedule, kept local in the loop
	if segs != nil {
		out = (*segs)[:0]
	}
	feasible := true
	now := t
	var running = Unmapped // entry currently committed on a non-preemptable resource
	for {
		// Find the entry to run now.
		pick := Unmapped
		if !preemptable && running != Unmapped && rem[running] > Eps {
			pick = running
		} else {
			running = Unmapped
			pinnedPick := Unmapped
			for i := range entries {
				if rem[i] <= Eps || entries[i].ReadyAt > now+Eps {
					continue
				}
				if !preemptable && entries[i].PinnedFirst {
					// A mid-execution occupant goes before everything else;
					// among several (an impossible state for a real
					// simulation, but solvers accept arbitrary Problems)
					// the earliest deadline is served first, so dispatch
					// does not depend on entry order.
					if pinnedPick == Unmapped || entries[i].Deadline < entries[pinnedPick].Deadline-Eps {
						pinnedPick = i
					}
					continue
				}
				if pick == Unmapped || entries[i].Deadline < entries[pick].Deadline-Eps {
					pick = i
				}
			}
			if pinnedPick != Unmapped {
				pick = pinnedPick
			}
		}
		if pick == Unmapped {
			// Idle: jump to the next release, or finish.
			next := 0.0
			found := false
			for i := range entries {
				if rem[i] > Eps && (!found || entries[i].ReadyAt < next) {
					next = entries[i].ReadyAt
					found = true
				}
			}
			if !found {
				break
			}
			now = next
			continue
		}
		until := now + rem[pick]
		if preemptable {
			// Break at the next future release so a newly ready entry can
			// preempt. With at most one future release (the predicted
			// task) this costs one extra segment.
			for i := range entries {
				if rem[i] > Eps && entries[i].ReadyAt > now+Eps && entries[i].ReadyAt < until {
					until = entries[i].ReadyAt
				}
			}
		} else {
			running = pick
		}
		rem[pick] -= until - now
		if segs != nil {
			if n := len(out); n > 0 && out[n-1].Index == pick && out[n-1].End >= now-Eps {
				out[n-1].End = until
			} else {
				out = append(out, Segment{Index: pick, Start: now, End: until})
			}
		}
		now = until
		if rem[pick] <= Eps {
			// A completed entry keeps its negated completion time — still
			// "no work left" to the dispatch rules — which the verdict
			// sink reads back below. A completion at or before time 0
			// (only possible on a negative clock) is stored as 0 and
			// reported as unserved.
			rem[pick] = 0
			if now > 0 {
				rem[pick] = -now
			}
			if !preemptable {
				running = Unmapped
			}
			if now > entries[pick].Deadline+Eps {
				if segs == nil && v == nil {
					return false
				}
				feasible = false
			}
		}
	}
	if segs != nil {
		*segs = out
	}
	if v != nil {
		v.Feasible = feasible
		for i := range entries {
			if rem[i] >= 0 {
				continue // never served (zero demand)
			}
			slack := entries[i].Deadline + rem[i]
			if slack < v.Slack {
				v.Slack = slack
			}
			if slack < -Eps && v.BreachDeadline == 0 {
				v.BreachDeadline = entries[i].Deadline
			}
		}
	}
	return feasible
}

// FeasibleSorted checks EDF feasibility of entries that are all ready at t
// and already ordered for service — pinned occupants first (by deadline
// among themselves), then non-decreasing deadline, i.e. the order
// EntryList maintains. With synchronous release the cumulative-demand scan
// is exact for both preemptive and non-preemptive resources; it is the
// allocation-free hot path of the mapping solvers, which keep their
// per-resource entry lists sorted incrementally.
func FeasibleSorted(t float64, entries []Entry) bool {
	return feasibleSorted(t, entries, nil)
}

// feasibleSorted is the one cumulative-demand scan. Without a verdict
// sink it returns at the first miss. With one it folds every entry into
// v (initialised and read by the caller), so v.Slack reports the
// tightest (most negative) margin while v.BreachDeadline pins the first
// entry that missed — the deadline the verdict hinges on — and its own
// result is then always true. It stays within the inlining budget, so
// FeasibleSorted's nil sink folds away.
func feasibleSorted(t float64, entries []Entry, v *FeasVerdict) bool {
	finish := t
	for _, e := range entries {
		finish += e.Rem
		if v != nil {
			v.sorted(e.Deadline, finish)
		} else if finish > e.Deadline+Eps {
			return false
		}
	}
	return true
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
