package telemetry

// Enumerated reason vocabulary. Every Event.Reason emitted by this
// repository is one of these constants; free-text reasons are not part of
// the schema. Trace consumers (internal/traceview) validate decoded events
// against KnownReason and flag foreign strings as typed diagnostics, so a
// renamed or ad-hoc reason cannot silently drift out of dashboards and
// reports.
const (
	// EvSolverReturned: the admission protocol's verdict.
	ReasonFeasible   = "feasible"
	ReasonInfeasible = "infeasible"
	ReasonError      = "error"

	// EvAdmit / EvDecision: how the request was accepted.
	ReasonWithReservation   = "with_reservation"
	ReasonPredictionDropped = "prediction_dropped"
	ReasonPlain             = "plain"

	// EvReject / EvDecision: why the request was refused. The admission
	// protocol rejects only when no feasible mapping exists after dropping
	// every prediction; the finer cause (which candidate broke, which chain
	// stage handed off) lives in the decision's provenance record.
	ReasonNoFeasibleMapping = "no_feasible_mapping"

	// EvSolverFallback: why a chain stage handed the problem off.
	ReasonPanic      = "panic"
	ReasonBudget     = "budget"
	ReasonRejectOnly = "reject_only"
	// ReasonError (above) is shared: a stage that returned an error.

	// EvJobStart / EvJobPreempt: execution lifecycle transitions.
	ReasonStart     = "start"
	ReasonResume    = "resume"
	ReasonDisplaced = "displaced"
	ReasonMigrated  = "migrated"
	ReasonPaused    = "paused"

	// EvFaultInjected: which fault of the plan fired.
	ReasonSolverError      = "solver_error"
	ReasonLatencySpike     = "latency_spike"
	ReasonPredictorOutage  = "predictor_outage"
	ReasonPredictorCorrupt = "predictor_corrupt"
)

// ReasonVocabulary returns the closed reason set of every event type that
// carries reasons, in schema order. Event types absent from the map never
// carry a reason.
func ReasonVocabulary() map[EventType][]string {
	return map[EventType][]string{
		EvSolverReturned: {ReasonFeasible, ReasonInfeasible, ReasonError},
		EvAdmit:          {ReasonWithReservation, ReasonPredictionDropped, ReasonPlain},
		EvReject:         {ReasonNoFeasibleMapping},
		EvDecision: {ReasonWithReservation, ReasonPredictionDropped, ReasonPlain,
			ReasonNoFeasibleMapping},
		EvSolverFallback: {ReasonError, ReasonPanic, ReasonBudget, ReasonRejectOnly},
		EvJobStart:       {ReasonStart, ReasonResume},
		EvJobPreempt:     {ReasonDisplaced, ReasonMigrated, ReasonPaused},
		EvFaultInjected: {ReasonSolverError, ReasonLatencySpike,
			ReasonPredictorOutage, ReasonPredictorCorrupt},
	}
}

// reasonSets indexes ReasonVocabulary for KnownReason.
var reasonSets = func() map[EventType]map[string]bool {
	m := make(map[EventType]map[string]bool)
	for typ, reasons := range ReasonVocabulary() {
		set := make(map[string]bool, len(reasons))
		for _, r := range reasons {
			set[r] = true
		}
		m[typ] = set
	}
	return m
}()

// KnownReason reports whether reason belongs to typ's vocabulary. The
// empty reason is always known (most event kinds carry none); a non-empty
// reason on a type with no vocabulary is unknown.
func KnownReason(typ EventType, reason string) bool {
	if reason == "" {
		return true
	}
	return reasonSets[typ][reason]
}
