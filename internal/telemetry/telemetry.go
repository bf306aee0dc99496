// Package telemetry is the repository's observability layer: a structured
// event tracer, a dependency-free metrics registry (counters, gauges,
// fixed-bucket histograms), and a wall-clock timer helper for attributing
// runtime between the solver, the schedulability machinery, and trace
// advancement.
//
// Everything is nil-safe by design: the zero value of every handle — a nil
// *Tracer, *Registry, *Counter, *Gauge, or *Histogram — is a no-op whose
// methods return immediately, so instrumented code paths cost one nil
// check when telemetry is disabled. This is what lets internal/sim keep
// its event loop uninstrumented-fast while still being fully traceable
// (see BenchmarkRunWithTelemetry at the repository root).
//
// Event schema (JSONL, one object per line when a sink is attached):
//
//	{"seq":12,"t":3.25,"type":"solver_returned","req":4,"task":-1,"res":-1,
//	 "value":18.7,"wall_ns":41250,"reason":"feasible"}
//
// Field conventions: t is simulated time; req/task/res are -1 when the
// event is not scoped to a request, task type, or resource; value carries
// the event-specific magnitude (deadline, energy, job count, …); wall_ns
// is measured wall-clock time and is therefore nondeterministic; reason is
// a short machine-readable cause ("no_feasible_mapping",
// "with_reservation", …).
package telemetry

// EventType names one kind of structured simulation event.
type EventType string

// Event types emitted by internal/sim. The per-type meaning of the Event
// fields is documented in the README's Observability section.
const (
	// EvArrival: a trace request arrived. Req/Task set; Value is the
	// absolute deadline.
	EvArrival EventType = "arrival"
	// EvPrediction: the predictor issued a forecast at the activation for
	// request Req. Task is the predicted type; Value the predicted arrival.
	EvPrediction EventType = "prediction"
	// EvSolverInvoked: the admission protocol started for request Req.
	// Value is the number of jobs in the problem (active + arriving +
	// predicted).
	EvSolverInvoked EventType = "solver_invoked"
	// EvSolverReturned: the admission protocol finished. WallNs is the
	// measured solver latency; Reason is "feasible", "infeasible", or
	// "error" (a fallible solver failed and the run aborted); Value is the
	// decision's energy objective when feasible.
	EvSolverReturned EventType = "solver_returned"
	// EvAdmit: request Req was accepted onto resource Res. Reason is
	// "with_reservation" when a predicted job was co-mapped,
	// "prediction_dropped" when a predictor was active but its forecast had
	// to be discarded to admit, and "plain" otherwise.
	EvAdmit EventType = "admit"
	// EvReject: request Req was rejected; Reason is the cause.
	EvReject EventType = "reject"
	// EvMigration: the job of request Req was remapped to resource Res and
	// charged; Value is the migration energy.
	EvMigration EventType = "migration"
	// EvReservationPlanned: a reservation for a predicted job was installed
	// on resource Res at the activation for request Req; Value is the
	// predicted arrival.
	EvReservationPlanned EventType = "reservation_planned"
	// EvReservationHonoured: a standing reservation on resource Res was
	// held idle until the next activation.
	EvReservationHonoured EventType = "reservation_honoured"
	// EvJobStart: the job of request Req began or resumed executing on
	// resource Res. Reason is "start" for the first dispatch and "resume"
	// afterwards; Value is the remaining work fraction.
	EvJobStart EventType = "job_start"
	// EvJobPreempt: the job of request Req stopped executing on resource
	// Res before completing. Reason is "displaced" (another job took the
	// resource), "migrated" (the job continued on another resource), or
	// "paused" (the planned schedule idles the resource, e.g. through a
	// reservation gap); Value is the remaining work fraction. Must never
	// occur on a non-preemptable resource.
	EvJobPreempt EventType = "job_preempt"
	// EvJobFinish: the job of request Req completed on resource Res.
	// Value is the job's total consumed energy (including migrations).
	EvJobFinish EventType = "job_finish"
	// EvSolverFallback: the budgeted solver chain (core.BudgetedSolver)
	// fell through to a deeper stage during the activation for request
	// Req. Value is the stage index fallen to (== the chain length when it
	// bottomed out in reject-only); Reason is "error" (the stage failed),
	// "panic" (the stage panicked and was recovered), "budget" (its budget
	// ran out with no feasible incumbent), or "reject_only".
	EvSolverFallback EventType = "solver_fallback"
	// EvFaultInjected: a fault plan (internal/faultinject) fired. Reason
	// identifies the fault ("solver_error", "latency_spike",
	// "predictor_outage", "predictor_corrupt"); Value carries its
	// magnitude where meaningful (spike duration, arrival shift).
	EvFaultInjected EventType = "fault_injected"
	// EvDecision: the per-activation decision-provenance record, emitted
	// after the admit/reject event of the same request when
	// engine.Config.Provenance is on. Req/Task are the request; Res is the
	// admitted resource or -1; Value is the decision energy when admitted;
	// Reason repeats the admit/reject reason; Prov carries the full causal
	// record (solver-chain hops, candidate verdicts, regret picks, B&B
	// statistics, remap deltas).
	EvDecision EventType = "decision"
)

// KnownEventTypes returns every event type internal/sim emits, in schema
// order. Trace consumers (internal/traceview) use it to flag records from
// a newer or foreign schema.
func KnownEventTypes() []EventType {
	return []EventType{
		EvArrival, EvPrediction, EvSolverInvoked, EvSolverReturned,
		EvAdmit, EvReject, EvMigration,
		EvReservationPlanned, EvReservationHonoured,
		EvJobStart, EvJobPreempt, EvJobFinish,
		EvSolverFallback, EvFaultInjected, EvDecision,
	}
}

// Event is one structured trace record. The zero value is not meaningful;
// build events with NewEvent so the -1 conventions hold.
type Event struct {
	// Seq is the tracer-assigned emission index (starts at 0).
	Seq int64 `json:"seq"`
	// T is the simulated time of the event.
	T float64 `json:"t"`
	// Type discriminates the schema.
	Type EventType `json:"type"`
	// Req is the trace request id, or -1.
	Req int `json:"req"`
	// Task is the task type id, or -1.
	Task int `json:"task"`
	// Res is the resource id, or -1.
	Res int `json:"res"`
	// Value is the event-specific magnitude (see the type's doc).
	Value float64 `json:"value,omitempty"`
	// WallNs is measured wall-clock time in nanoseconds. It is the only
	// nondeterministic field; golden tests must clear it.
	WallNs int64 `json:"wall_ns,omitempty"`
	// Reason is a machine-readable cause from the enumerated vocabulary
	// (see reason.go and KnownReason).
	Reason string `json:"reason,omitempty"`
	// Prov is the decision-provenance record of an EvDecision event; nil
	// on every other event type (and whenever provenance is disabled).
	Prov *Provenance `json:"prov,omitempty"`
}

// NewEvent builds an event at simulated time t with the request/task/
// resource fields initialised to the -1 "not applicable" convention.
func NewEvent(t float64, typ EventType) Event {
	return Event{T: t, Type: typ, Req: -1, Task: -1, Res: -1}
}

// Instrumentable is implemented by solvers (and other components) that can
// register instruments on a metrics registry. internal/sim attaches its
// configured registry to the solver before a run.
type Instrumentable interface {
	AttachMetrics(*Registry)
}
