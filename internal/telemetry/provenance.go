package telemetry

import "math"

// Decision provenance: the structured causal record behind one admission
// decision. Where the admit/reject events state the outcome, the
// provenance record answers *why* — which solver-chain stages ran and why
// each handed off, which candidate resources the heuristic weighed and the
// exact feasibility verdict per candidate, the regret order tasks were
// placed in, the branch-and-bound effort of the exact path, and which
// standing jobs the decision remapped.
//
// Recording is opt-in (engine.Config.Provenance) and arena-backed: solvers
// append into a ProvRecorder whose slices are reset — not reallocated —
// every activation, and the simulator snapshots the arena into the emitted
// decision event. With no recorder attached every hook is a nil-receiver
// no-op, so the decision hot path keeps its +0 allocs/op benchmark gate.

// Candidate feasibility verdicts (CandidateVerdict.Verdict).
const (
	// VerdictChosen: the job was placed on this resource.
	VerdictChosen = "chosen"
	// VerdictEDFInfeasible: the trial insert failed the EDF
	// schedulability probe; Slack and Deadline locate the breach.
	VerdictEDFInfeasible = "edf_infeasible"
	// VerdictNoCapacity: the resource's remaining window capacity K̄ no
	// longer fits the job (Algorithm 1 line 10), so it left the job's
	// feasible set before any EDF probe.
	VerdictNoCapacity = "no_capacity"
	// VerdictNotExecutable: the task type cannot run on the resource.
	VerdictNotExecutable = "not_executable"
	// VerdictNotTried: the resource stayed in the feasible set but a more
	// desirable candidate won first.
	VerdictNotTried = "not_tried"
)

// Chain-stage outcomes (StageHop.Outcome).
const (
	// StageServed: the stage produced the decision used.
	StageServed = "served"
	// StageError / StagePanic / StageBudget: why the stage handed off.
	StageError  = "error"
	StagePanic  = "panic"
	StageBudget = "budget"
	// StageRejectOnly: the chain bottomed out in the terminal reject.
	StageRejectOnly = "reject_only"
)

// CandidateVerdict records one (job, resource) consideration of the
// mapping heuristic with its specific feasibility outcome.
type CandidateVerdict struct {
	// Attempt is the admission-protocol attempt this probe belongs to
	// (index into Provenance.Attempts), or -1 outside the protocol.
	Attempt int `json:"attempt"`
	// Job is the trace id of the job being placed (negative for predicted
	// planning copies).
	Job int `json:"job"`
	// Res is the candidate resource.
	Res int `json:"res"`
	// Verdict is one of the Verdict* constants.
	Verdict string `json:"verdict"`
	// Des is the Algorithm 1 desirability f_{j,i} of the candidate
	// (energy + big-M slack penalty), when the type is executable there.
	Des float64 `json:"des,omitempty"`
	// Slack is the tightest deadline slack the feasibility probe saw
	// (negative when Verdict is edf_infeasible).
	Slack float64 `json:"slack,omitempty"`
	// Deadline is the absolute deadline that broke the EDF probe, when
	// Verdict is edf_infeasible.
	Deadline float64 `json:"deadline,omitempty"`
	// Preempt reports the probe ran under preemptive EDF.
	Preempt bool `json:"preempt,omitempty"`
	// EDFPath reports the probe took the full EDF simulation instead of
	// the sorted cumulative scan (a future release was present).
	EDFPath bool `json:"edf_path,omitempty"`
}

// PickStep records one max-regret selection: job was placed next with the
// given regret (second-best minus best desirability) onto Res. A job with a
// single feasible resource has infinite regret (Algorithm 1 line 14); since
// +Inf is not representable in JSON, such steps carry Forced instead.
type PickStep struct {
	Attempt int     `json:"attempt"`
	Job     int     `json:"job"`
	Regret  float64 `json:"regret"`
	Forced  bool    `json:"forced,omitempty"`
	Res     int     `json:"res"`
}

// StageHop records one BudgetedSolver chain stage attempt.
type StageHop struct {
	Attempt int `json:"attempt"`
	// Stage is the chain index; Name its configured label (empty for the
	// synthetic terminal reject-only stage).
	Stage int    `json:"stage"`
	Name  string `json:"name,omitempty"`
	// Outcome is one of the Stage* constants.
	Outcome string `json:"outcome"`
	// Err carries the stage's error (or recovered panic) text.
	Err string `json:"err,omitempty"`
	// Nodes is the budgeted node spend of a BudgetAware stage.
	Nodes int `json:"nodes,omitempty"`
	// WallNs is the stage's measured wall-clock spend (nondeterministic;
	// golden tests must clear it like Event.WallNs).
	WallNs int64 `json:"wall_ns,omitempty"`
}

// Attempt records one admission-protocol solve: the Sec 4.1 loop solves
// with all predictions first and re-solves as it drops them.
type Attempt struct {
	// Jobs is the sub-problem size; Predicted how many predicted planning
	// jobs it still contained.
	Jobs      int `json:"jobs"`
	Predicted int `json:"predicted"`
	// Feasible and Energy report the solve's outcome.
	Feasible bool    `json:"feasible"`
	Energy   float64 `json:"energy,omitempty"`
}

// BBStats records one exact (branch-and-bound) solve's search effort.
type BBStats struct {
	Attempt int `json:"attempt"`
	// Nodes expanded; Truncated when the budget cut the search short.
	Nodes     int  `json:"nodes"`
	Truncated bool `json:"truncated,omitempty"`
	// CacheHits/CacheMisses are the FeasCache probe counts of this solve.
	CacheHits   int64 `json:"cache_hits,omitempty"`
	CacheMisses int64 `json:"cache_misses,omitempty"`
	// Incumbent is the best energy found (0 when no feasible mapping).
	Incumbent float64 `json:"incumbent,omitempty"`
}

// Remap records one standing job the decision moved, relative to the
// previous activation's mapping.
type Remap struct {
	Job  int `json:"job"`
	From int `json:"from"`
	To   int `json:"to"`
	// Charged reports whether the move cost migration energy (started
	// jobs, or any move under ChargeAlways).
	Charged bool `json:"charged,omitempty"`
}

// Provenance is the full causal record of one admission decision, carried
// by an EvDecision event.
type Provenance struct {
	// Attempts are the admission protocol's solves, in order.
	Attempts []Attempt `json:"attempts,omitempty"`
	// Stages are the solver-chain hops across all attempts.
	Stages []StageHop `json:"stages,omitempty"`
	// Picks is the regret-order placement sequence.
	Picks []PickStep `json:"picks,omitempty"`
	// Candidates are the per-(job, resource) feasibility verdicts.
	Candidates []CandidateVerdict `json:"candidates,omitempty"`
	// BB holds the exact solver's per-solve search statistics.
	BB []BBStats `json:"bb,omitempty"`
	// Remaps are the standing-mapping deltas vs the previous activation.
	Remaps []Remap `json:"remaps,omitempty"`
}

// ProvRecorder is the arena provenance sinks record into. A nil recorder
// is a no-op (every method nil-receiver-safe), which is how the hot path
// stays allocation-free when provenance is off; a live recorder reuses its
// slices across activations via Reset. Like the solvers that feed it, a
// recorder is not safe for concurrent use.
type ProvRecorder struct {
	prov    Provenance
	attempt int
}

// NewProvRecorder returns an empty recorder.
func NewProvRecorder() *ProvRecorder {
	return &ProvRecorder{attempt: -1}
}

// Enabled reports whether recording is live; sinks guard any non-trivial
// bookkeeping (explain-mode feasibility probes, wall timers) behind it.
func (r *ProvRecorder) Enabled() bool { return r != nil }

// Reset empties the arena for the next activation, retaining capacity.
func (r *ProvRecorder) Reset() {
	if r == nil {
		return
	}
	r.prov.Attempts = r.prov.Attempts[:0]
	r.prov.Stages = r.prov.Stages[:0]
	r.prov.Picks = r.prov.Picks[:0]
	r.prov.Candidates = r.prov.Candidates[:0]
	r.prov.BB = r.prov.BB[:0]
	r.prov.Remaps = r.prov.Remaps[:0]
	r.attempt = -1
}

// BeginAttempt opens the next admission-protocol attempt; subsequent
// records are stamped with its index.
func (r *ProvRecorder) BeginAttempt(jobs, predicted int) {
	if r == nil {
		return
	}
	r.prov.Attempts = append(r.prov.Attempts, Attempt{Jobs: jobs, Predicted: predicted})
	r.attempt = len(r.prov.Attempts) - 1
}

// EndAttempt closes the current attempt with the solve's outcome.
func (r *ProvRecorder) EndAttempt(feasible bool, energy float64) {
	if r == nil || r.attempt < 0 {
		return
	}
	a := &r.prov.Attempts[r.attempt]
	a.Feasible = feasible
	a.Energy = energy
}

// Candidate appends one feasibility verdict, stamped with the current
// attempt.
func (r *ProvRecorder) Candidate(c CandidateVerdict) {
	if r == nil {
		return
	}
	c.Attempt = r.attempt
	r.prov.Candidates = append(r.prov.Candidates, c)
}

// Pick appends one max-regret placement step. An infinite regret (single
// feasible resource) is normalised to the JSON-safe Forced flag.
func (r *ProvRecorder) Pick(job int, regret float64, res int) {
	if r == nil {
		return
	}
	s := PickStep{Attempt: r.attempt, Job: job, Regret: regret, Res: res}
	if math.IsInf(regret, 1) {
		s.Regret, s.Forced = 0, true
	}
	r.prov.Picks = append(r.prov.Picks, s)
}

// Stage appends one solver-chain hop.
func (r *ProvRecorder) Stage(h StageHop) {
	if r == nil {
		return
	}
	h.Attempt = r.attempt
	r.prov.Stages = append(r.prov.Stages, h)
}

// BB appends one exact-solve search record.
func (r *ProvRecorder) BB(b BBStats) {
	if r == nil {
		return
	}
	b.Attempt = r.attempt
	r.prov.BB = append(r.prov.BB, b)
}

// Remap appends one standing-mapping delta.
func (r *ProvRecorder) Remap(job, from, to int, charged bool) {
	if r == nil {
		return
	}
	r.prov.Remaps = append(r.prov.Remaps, Remap{Job: job, From: from, To: to, Charged: charged})
}

// Snapshot deep-copies the arena into an independent record for emission.
// The copy is what makes arena reuse safe: the tracer's ring (and any
// subscriber) holds events beyond the activation that produced them.
func (r *ProvRecorder) Snapshot() *Provenance {
	if r == nil {
		return nil
	}
	p := &Provenance{}
	if len(r.prov.Attempts) > 0 {
		p.Attempts = append([]Attempt(nil), r.prov.Attempts...)
	}
	if len(r.prov.Stages) > 0 {
		p.Stages = append([]StageHop(nil), r.prov.Stages...)
	}
	if len(r.prov.Picks) > 0 {
		p.Picks = append([]PickStep(nil), r.prov.Picks...)
	}
	if len(r.prov.Candidates) > 0 {
		p.Candidates = append([]CandidateVerdict(nil), r.prov.Candidates...)
	}
	if len(r.prov.BB) > 0 {
		p.BB = append([]BBStats(nil), r.prov.BB...)
	}
	if len(r.prov.Remaps) > 0 {
		p.Remaps = append([]Remap(nil), r.prov.Remaps...)
	}
	return p
}

// ProvenanceAware is implemented by solvers that can record decision
// provenance. The simulator attaches its recorder before a run, exactly
// like Instrumentable and AttachMetrics; chain solvers forward the
// recorder to their stages.
type ProvenanceAware interface {
	AttachProvenance(*ProvRecorder)
}
