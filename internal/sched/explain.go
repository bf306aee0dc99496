package sched

// FeasVerdict is the explained result of one feasibility probe: besides
// the boolean the hot path computes, it reports how tight the schedule is
// and, when infeasible, which deadline broke. It feeds the decision-
// provenance plane through EntryList.Feasible's verdict sink.
type FeasVerdict struct {
	// Feasible mirrors the probe's boolean result.
	Feasible bool
	// Slack is the tightest deadline slack over the served entries
	// (deadline minus completion; negative exactly when infeasible under
	// the sorted scan, and for the first missed entry under EDF).
	Slack float64
	// BreachDeadline is the absolute deadline of the first entry that
	// missed, when infeasible; 0 otherwise.
	BreachDeadline float64
	// EDFPath reports the probe required the full EDF simulation (a
	// future release was present) instead of the sorted cumulative scan.
	EDFPath bool
}

// sorted folds one entry of the cumulative scan, completing at finish,
// into the verdict.
func (v *FeasVerdict) sorted(deadline, finish float64) {
	if slack := deadline - finish; slack < v.Slack {
		v.Slack = slack
	}
	if v.Feasible && finish > deadline+Eps {
		v.Feasible = false
		v.BreachDeadline = deadline
	}
}
