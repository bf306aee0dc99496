package traceview

import (
	"fmt"
	"math"
	"sort"

	"predrm/internal/platform"
	"predrm/internal/telemetry"
)

// ViolationKind classifies an invariant the replayed trace broke.
type ViolationKind int

const (
	// VDeadlineMiss: an admitted request finished after its deadline.
	VDeadlineMiss ViolationKind = iota
	// VMissingCompletion: an admitted request never finished although the
	// trace extends past its deadline.
	VMissingCompletion
	// VGPUPreempted: a job stopped executing on a non-preemptable
	// resource before completing.
	VGPUPreempted
	// VReservationDropped: a planned reservation was not honoured although
	// its window began before the next activation replaced it.
	VReservationDropped
	// VRejectedExecuted: a rejected request appeared on a resource.
	VRejectedExecuted
	// VConflictingDecision: a request was both admitted and rejected.
	VConflictingDecision
	// VOrphanAdmission: a request was admitted but has no arrival event
	// (only reported for gap-free traces).
	VOrphanAdmission
	// VExecBeforeArrival: a request executed before it arrived.
	VExecBeforeArrival
	// VOrphanFallback: the resilience chain reported a solver_fallback for
	// a request that has no solver_invoked event — a fallback can only
	// happen inside a running admission protocol (only reported for
	// gap-free traces).
	VOrphanFallback
)

// String names the kind.
func (k ViolationKind) String() string {
	switch k {
	case VDeadlineMiss:
		return "deadline_miss"
	case VMissingCompletion:
		return "missing_completion"
	case VGPUPreempted:
		return "gpu_preempted"
	case VReservationDropped:
		return "reservation_dropped"
	case VRejectedExecuted:
		return "rejected_executed"
	case VConflictingDecision:
		return "conflicting_decision"
	case VOrphanAdmission:
		return "orphan_admission"
	case VExecBeforeArrival:
		return "exec_before_arrival"
	case VOrphanFallback:
		return "orphan_fallback"
	default:
		return fmt.Sprintf("ViolationKind(%d)", int(k))
	}
}

// Violation is one broken invariant found by replaying a trace.
type Violation struct {
	Kind ViolationKind
	// Req is the request involved, or -1.
	Req int
	// Res is the resource involved, or -1.
	Res int
	// T locates the violation in simulated time.
	T float64
	// Detail elaborates.
	Detail string
}

// String formats the violation for reports.
func (v Violation) String() string {
	return fmt.Sprintf("t=%.6f req=%d res=%d %s: %s", v.T, v.Req, v.Res, v.Kind, v.Detail)
}

// AuditOptions configures Audit.
type AuditOptions struct {
	// Platform, when non-nil, enables the preemption-kind check (which
	// resources are non-preemptable is not serialised into traces). It
	// must have at least as many resources as the trace references.
	Platform *platform.Platform
}

// Audit replays a decoded trace against the resource manager's invariants
// and returns every violation found: admitted requests complete before
// their deadlines, non-preemptable resources are never preempted, planned
// reservations are honoured, and rejected
// requests never execute. A clean trace returns nil. Ring drops
// (d.Dropped > 0) soften the absence checks — a missing event is then
// indistinguishable from a dropped one — but never the positive checks.
func Audit(d *Decoded, opts AuditOptions) []Violation {
	tl := BuildTimeline(d)
	var vs []Violation

	for _, o := range tl.SortedRequests() {
		switch {
		case o.Admitted && o.Rejected:
			vs = append(vs, Violation{Kind: VConflictingDecision, Req: o.Req, Res: -1, T: o.AdmitTime,
				Detail: "request both admitted and rejected"})
		case o.Rejected && (o.Executed || o.Finished || o.Migrations > 0):
			vs = append(vs, Violation{Kind: VRejectedExecuted, Req: o.Req, Res: -1, T: o.Arrival,
				Detail: "rejected request appeared on a resource"})
		case o.Admitted && !o.HasArrival && tl.Dropped == 0:
			vs = append(vs, Violation{Kind: VOrphanAdmission, Req: o.Req, Res: o.AdmitRes, T: o.AdmitTime,
				Detail: "admitted request has no arrival event"})
		case o.Admitted && o.HasArrival && o.Finished && o.FinishTime > o.Deadline+timeEps:
			vs = append(vs, Violation{Kind: VDeadlineMiss, Req: o.Req, Res: o.AdmitRes, T: o.FinishTime,
				Detail: fmt.Sprintf("finished %.6f after deadline %.6f (slack %.6f)",
					o.FinishTime, o.Deadline, o.Slack())})
		case o.Admitted && o.HasArrival && !o.Finished && tl.Dropped == 0 && tl.End > o.Deadline+timeEps:
			vs = append(vs, Violation{Kind: VMissingCompletion, Req: o.Req, Res: o.AdmitRes, T: o.Deadline,
				Detail: fmt.Sprintf("no completion although the trace extends to %.6f, past the deadline %.6f",
					tl.End, o.Deadline)})
		}
	}

	// Execution must not precede arrival.
	for _, e := range d.Events {
		if e.Type != telemetry.EvJobStart || e.Req < 0 {
			continue
		}
		if o, ok := tl.Requests[e.Req]; ok && o.HasArrival && e.T < o.Arrival-timeEps {
			vs = append(vs, Violation{Kind: VExecBeforeArrival, Req: e.Req, Res: e.Res, T: e.T,
				Detail: fmt.Sprintf("started %.6f before arrival %.6f", e.T, o.Arrival)})
		}
	}

	// Non-preemptable resources run every started job to completion.
	if p := opts.Platform; p != nil {
		for _, e := range d.Events {
			if e.Type != telemetry.EvJobPreempt || e.Res < 0 || e.Res >= p.Len() {
				continue
			}
			if !p.Resource(e.Res).Preemptable() {
				vs = append(vs, Violation{Kind: VGPUPreempted, Req: e.Req, Res: e.Res, T: e.T,
					Detail: fmt.Sprintf("%s (%s) preempted a started job",
						p.Resource(e.Res).Name, e.Reason)})
			}
		}
	}

	vs = append(vs, auditReservations(d)...)
	if tl.Dropped == 0 {
		vs = append(vs, auditFallbacks(d)...)
	}

	sort.SliceStable(vs, func(a, b int) bool {
		if vs[a].T != vs[b].T {
			return vs[a].T < vs[b].T
		}
		return vs[a].Req < vs[b].Req
	})
	return vs
}

// auditReservations checks that every planned reservation was honoured. A
// reservation is installed at an activation and replaced at the next one
// (admission or rejection — each triggers a replan that reports the
// fate of the standing batch); it only owes an outcome when its window
// began before that boundary.
func auditReservations(d *Decoded) []Violation {
	var vs []Violation
	for i, e := range d.Events {
		if e.Type != telemetry.EvReservationPlanned {
			continue
		}
		arrival := e.Value
		resolved := false
		for _, f := range d.Events[i+1:] {
			if f.Type == telemetry.EvReservationHonoured && f.Res == e.Res && math.Abs(f.Value-arrival) <= timeEps {
				resolved = true
				break
			}
		}
		if resolved {
			continue
		}
		// The batch is replaced at the first boundary after planning; with
		// no boundary the end-of-run flush reports everything pending. If
		// the reserved window began before that point, an outcome was owed.
		flushT := math.Inf(-1)
		if n := len(d.Events); n > 0 {
			flushT = d.Events[n-1].T
		}
		if bound, ok := firstBoundaryAfter(d.Events, i); ok {
			flushT = bound
		}
		if flushT+timeEps >= arrival {
			vs = append(vs, Violation{Kind: VReservationDropped, Req: e.Req, Res: e.Res, T: e.T,
				Detail: fmt.Sprintf("reservation for predicted arrival %.6f not honoured by the next activation (t=%.6f)",
					arrival, flushT)})
		}
	}
	return vs
}

// auditFallbacks checks that every solver_fallback event (the resilience
// chain degrading, see core.BudgetedSolver) is anchored to a request whose
// admission protocol actually ran: a fallback for a request with no
// solver_invoked event means the chain was driven outside the protocol the
// trace describes. Only meaningful for gap-free traces — the caller gates
// on Dropped == 0.
func auditFallbacks(d *Decoded) []Violation {
	invoked := make(map[int]bool)
	for _, e := range d.Events {
		if e.Type == telemetry.EvSolverInvoked && e.Req >= 0 {
			invoked[e.Req] = true
		}
	}
	var vs []Violation
	for _, e := range d.Events {
		if e.Type != telemetry.EvSolverFallback || e.Req < 0 || invoked[e.Req] {
			continue
		}
		vs = append(vs, Violation{Kind: VOrphanFallback, Req: e.Req, Res: -1, T: e.T,
			Detail: fmt.Sprintf("solver fallback to stage %d (%s) for a request never handed to the solver",
				int(e.Value), e.Reason)})
	}
	return vs
}

// firstBoundaryAfter returns the time of the first replan boundary
// (admission or rejection) after event index i.
func firstBoundaryAfter(events []telemetry.Event, i int) (float64, bool) {
	for _, f := range events[i+1:] {
		switch f.Type {
		case telemetry.EvAdmit, telemetry.EvReject:
			return f.T, true
		}
	}
	return 0, false
}
