// Package engine is the activation engine shared by every driver of the
// paper's admission protocol: one request's worth of RM work — arrival
// intake, problem assembly (active jobs + arriving job + predicted jobs),
// the admission protocol, applying the resulting mapping with migration
// charging, and executing the planned EDF schedule (including
// reservations for predicted tasks) between activations.
//
// The engine is clock-agnostic: it never reads wall time. A driver owns
// the clock and pushes time into the engine — the discrete-event
// simulator (internal/sim) jumps virtual time from arrival to arrival,
// while the wall-clock server (internal/serve) calls AdvanceTo with the
// current wall reading and schedules its next call from NextWake. Both
// drivers therefore run byte-identical decision logic: for the same
// sequence of (arrival time, request) activations the engine produces the
// same admissions, mappings, migrations and completions regardless of who
// is driving (DESIGN.md §11).
//
// Between RM activations the platform executes the decision's *planned*
// EDF schedule, including the capacity reserved for the predicted task: a
// queued job planned after the predicted one waits for it. This is what
// makes a reservation on a non-preemptable resource effective — under
// work-conserving execution the next queued job would grab the reserved
// gap, get pinned, and block the real task when it arrives, silently
// cancelling the benefit prediction is supposed to deliver. Ablation A4
// (EXPERIMENTS.md) measured greedy backfilling against the planned
// schedule on VT and found no difference beyond seed noise, so the plan
// is the one execution model. With no prediction the planned schedule is
// the work-conserving EDF schedule, preserving the paper's "no
// preemption between two activations" property.
//
// An Engine is not safe for concurrent use: Activate, AdvanceTo, Drain
// and Finalize must be externally serialised, matching the Solver and
// BudgetedSolver concurrency contracts (one activation at a time per
// solver instance). internal/serve holds one mutex around the engine and
// its solver for exactly this reason.
package engine

import (
	"errors"
	"fmt"
	"math"
	"time"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// Config assembles one engine (one run's worth of RM state).
type Config struct {
	// Platform to execute on.
	Platform *platform.Platform
	// TaskSet resolving request types.
	TaskSet *task.Set
	// Solver is the mapping engine (heuristic, exact, or MILP).
	Solver core.Solver
	// Predictor provides next-request forecasts; nil disables prediction.
	Predictor predict.Predictor
	// Lookahead is the forecast horizon: how many upcoming requests are
	// included as planning constraints. 0 and 1 both mean the paper's
	// single-step prediction; larger values require a Predictor that
	// implements predict.MultiPredictor (the library's extension).
	Lookahead int
	// Policy selects migration charging (default ChargeStartedOnly).
	Policy sched.MigrationPolicy
	// OverheadHook, when non-nil, contributes additional per-request
	// decision latency (engine time): it is called once per arrival
	// with the request index and arrival time, and its result is added to
	// the predictor overhead. internal/faultinject uses it to inject
	// latency spikes; it must be deterministic in (req, arrival) for
	// reproducible runs and must not return a negative value.
	OverheadHook func(req int, arrival float64) float64
	// Audit re-verifies at every activation that the active jobs' current
	// mappings are still EDF-feasible, reporting the first violation
	// through the returned error. Meant for tests and debugging; the
	// invariant must hold for a sound RM.
	Audit bool
	// RecordExecution captures the executed schedule as Result.Execution
	// (per-resource segments), for Gantt rendering and post-hoc analysis.
	RecordExecution bool
	// Tracer receives structured events (arrivals, predictions, solver
	// latencies, admissions, migrations, reservations); nil disables
	// tracing at near-zero cost.
	Tracer *telemetry.Tracer
	// Metrics, when non-nil, collects counters and latency histograms for
	// the run; the snapshot is surfaced as Result.Telemetry. Solvers
	// implementing telemetry.Instrumentable are attached automatically.
	Metrics *telemetry.Registry
	// StateProbe, when non-nil, receives a point-in-time StateSample after
	// every admission decision and once more when the run drains — the
	// clock-agnostic hook the live introspection plane (internal/obs)
	// mounts to publish RM state. It is called synchronously from the
	// activation, so it must be fast and must not retain the sample's
	// Resources slice beyond the call.
	StateProbe func(StateSample)
	// Provenance enables per-activation decision-provenance recording: a
	// ProvRecorder is attached to the solver (telemetry.ProvenanceAware)
	// and every admission decision is followed by an EvDecision event
	// carrying the full causal record — solver-chain hops, candidate
	// feasibility verdicts, regret picks, branch-and-bound statistics, and
	// remapping deltas. Off by default: recording widens the solver's
	// feasibility probes to explain mode and allocates per activation, so
	// the hot path keeps its allocation-free benchmark gate when disabled.
	// Requires Tracer to be useful (the record rides the event stream).
	Provenance bool
}

// StateSample is the RM state handed to Config.StateProbe: cumulative
// admission counters plus the current in-flight picture. Counters are
// cumulative since the start of the run so samplers can window them.
// The sharded engine (S > 1) probes an epoch's decisions only after
// every shard has finished the epoch: its admission counters still stop
// at each sample's request, but the in-flight picture (Finished,
// DeadlineMisses, InFlight, Resources) is the post-epoch one.
type StateSample struct {
	// Time is the engine time of the sample.
	Time float64 `json:"time"`
	// Req is the request index just decided, or -1 for the final
	// end-of-run sample.
	Req int `json:"req"`
	// Requests counts arrivals decided so far (== Accepted + Rejected),
	// Req included: Req+1 on a per-decision sample.
	Requests int `json:"requests"`
	// Accepted and Rejected are cumulative admission outcomes.
	Accepted int `json:"accepted"`
	Rejected int `json:"rejected"`
	// Finished counts adaptive jobs that completed so far.
	Finished int `json:"finished"`
	// DeadlineMisses counts accepted jobs that finished late so far (0 for
	// a sound RM).
	DeadlineMisses int `json:"deadline_misses"`
	// InFlight is the number of currently active jobs.
	InFlight int `json:"in_flight"`
	// Resources holds one entry per platform resource, indexed by id.
	Resources []ResourceSample `json:"resources"`
}

// ResourceSample is one resource's slice of a StateSample.
type ResourceSample struct {
	// Jobs counts active jobs currently mapped to the resource.
	Jobs int `json:"jobs"`
	// Reserved counts standing reservations for predicted jobs on it.
	Reserved int `json:"reserved"`
	// NextDeadline is the earliest absolute deadline among the mapped
	// jobs, or 0 when the resource is empty (JSON cannot carry +Inf).
	NextDeadline float64 `json:"next_deadline"`
}

// ExecSegment is one contiguous piece of executed schedule: job JobID ran
// on Resource during [Start, End). Migration-debt service is included in
// the job's occupancy.
type ExecSegment struct {
	Resource int     `json:"resource"`
	JobID    int     `json:"job"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
}

// ErrLookaheadUnsupported rejects a Lookahead > 1 whose Predictor cannot
// forecast several steps (it does not implement predict.MultiPredictor):
// the engine would silently plan with a one-step forecast.
var ErrLookaheadUnsupported = errors.New("engine: lookahead > 1 needs a predict.MultiPredictor")

// Validate checks the configuration.
func (c *Config) Validate() error {
	switch {
	case c.Platform == nil:
		return errors.New("engine: no platform")
	case c.TaskSet == nil:
		return errors.New("engine: no task set")
	case c.Solver == nil:
		return errors.New("engine: no solver")
	case c.Lookahead < 0:
		return errors.New("engine: negative lookahead")
	case c.Lookahead > 1 && c.Predictor == nil:
		return errors.New("engine: lookahead needs a predictor")
	}
	if _, ok := c.Predictor.(predict.MultiPredictor); c.Lookahead > 1 && !ok {
		return fmt.Errorf("%w (%T)", ErrLookaheadUnsupported, c.Predictor)
	}
	return nil
}

// JobRecord is the per-request outcome.
type JobRecord struct {
	// ID is the request's index in the activation sequence.
	ID int
	// Type is the task type.
	Type int
	// Arrival and AbsDeadline are absolute times.
	Arrival, AbsDeadline float64
	// Accepted reports admission.
	Accepted bool
	// FinishTime is the completion time of accepted jobs.
	FinishTime float64
	// Energy is the energy this job consumed, including its migrations.
	Energy float64
	// Migrations counts charged relocations.
	Migrations int
	// MissedDeadline flags an accepted job finishing late — an invariant
	// violation of the resource manager.
	MissedDeadline bool
}

// Result aggregates one run.
type Result struct {
	// Requests is the number of activations; Accepted + Rejected == Requests.
	Requests, Accepted, Rejected int
	// TotalEnergy is the energy of all executed work plus migrations.
	TotalEnergy float64
	// MigrationEnergy is the migration share of TotalEnergy.
	MigrationEnergy float64
	// Migrations counts charged relocations.
	Migrations int
	// DeadlineMisses counts accepted jobs that finished late (must be 0
	// for a sound RM).
	DeadlineMisses int
	// MakeSpan is when the last accepted job finished.
	MakeSpan float64
	// Execution is the executed schedule when Config.RecordExecution is
	// set, ordered by start time within each resource.
	Execution []ExecSegment
	// Jobs holds one record per request, in activation order.
	Jobs []JobRecord
	// Telemetry is the metrics snapshot of the run when Config.Metrics was
	// set (solver-latency histogram, event counters, solver instruments);
	// nil otherwise.
	Telemetry *telemetry.Snapshot
}

// RejectionPct returns the rejected percentage of requests.
func (r *Result) RejectionPct() float64 {
	if r.Requests == 0 {
		return 0
	}
	return 100 * float64(r.Rejected) / float64(r.Requests)
}

// Outcome is one activation's admission decision as seen by the driver.
type Outcome struct {
	// Req is the request id the driver passed to Activate.
	Req int
	// Time is the engine time the decision was taken at (arrival plus
	// decision overhead, never before the previous decision).
	Time float64
	// Accepted reports admission.
	Accepted bool
	// Resource is the arriving job's mapped resource, or sched.Unmapped
	// for a rejection.
	Resource int
	// Reason is the enumerated telemetry reason for the decision.
	Reason string
	// Energy is the admitted decision's planned energy (0 on rejection).
	Energy float64
}

// planSeg is one piece of the standing schedule: job runs on its resource
// during [start, end); a nil job is a reservation for the predicted task
// (the resource idles through it).
type planSeg struct {
	job        *sched.Job
	start, end float64
}

// instruments bundles the engine's registered metrics. All fields are
// nil when the run has no registry, making every operation a no-op.
type instruments struct {
	requests, accepted, rejected     *telemetry.Counter
	predictions, migrations          *telemetry.Counter
	resvPlanned, resvHonoured        *telemetry.Counter
	solverSec, replanSec, advanceSec *telemetry.Histogram
	activeJobs                       *telemetry.Histogram
	activePeak                       *telemetry.Gauge
}

// newInstruments registers the engine's instruments on reg (nil-safe).
// Instrument names keep their historical sim.* prefix: every dashboard,
// golden exposition file and /statusz field reads them by that name, and
// the metrics describe the same admission protocol regardless of driver.
func newInstruments(reg *telemetry.Registry) instruments {
	return instruments{
		requests:     reg.Counter("sim.requests"),
		accepted:     reg.Counter("sim.accepted"),
		rejected:     reg.Counter("sim.rejected"),
		predictions:  reg.Counter("sim.predictions"),
		migrations:   reg.Counter("sim.migrations"),
		resvPlanned:  reg.Counter("sim.reservations_planned"),
		resvHonoured: reg.Counter("sim.reservations_honoured"),
		solverSec:    reg.Histogram("sim.solver_seconds", telemetry.LatencyBuckets),
		replanSec:    reg.Histogram("sim.replan_seconds", telemetry.LatencyBuckets),
		advanceSec:   reg.Histogram("sim.advance_seconds", telemetry.LatencyBuckets),
		activeJobs:   reg.Histogram("sim.active_jobs", telemetry.CountBuckets),
		activePeak:   reg.Gauge("sim.active_jobs_peak"),
	}
}

// Engine is the mutable activation-engine state. Create with New; drive
// with Activate (one request), AdvanceTo (execute up to a time), Drain
// (run remaining work out in engine time) and Finalize (assemble the
// Result). Not safe for concurrent use.
type Engine struct {
	cfg    Config
	now    float64
	active []*sched.Job
	rec    []JobRecord
	res    *Result
	// plan holds the standing schedule per resource.
	plan [][]planSeg
	// exec accumulates executed segments per resource (RecordExecution).
	exec [][]ExecSegment
	// trc and ins are the run's telemetry handles (nil-safe no-ops when
	// telemetry is disabled).
	trc *telemetry.Tracer
	ins instruments
	// pendingResv holds the reservations installed by the last replan, so
	// the next activation can report whether they were held.
	pendingResv []ghostRef
	// running tracks, per resource, the job currently mid-execution there.
	// It exists only to emit job_start/job_preempt/job_finish lifecycle
	// events and is nil when tracing is disabled.
	running []*sched.Job
	// preds holds the current activation's forecast as planning jobs. Its
	// storage starts out in predBuf and is reused across activations, so
	// the paper's one-step forecast never allocates a buffer.
	preds   []*sched.Job
	predBuf [1]*sched.Job
	// prov is the decision-provenance arena, non-nil only when
	// Config.Provenance is on; it is Reset at every activation and
	// snapshotted into the EvDecision event.
	prov *telemetry.ProvRecorder
	// finished counts completed adaptive jobs, for StateProbe samples.
	finished int
	// The activation buffers, reused at every activation so that one
	// costs no allocation beyond the jobs it creates (DESIGN.md §11):
	// the job list and mapping decide and replan assemble, the problem
	// handed to the solver and the scheduler, the admission fallback's
	// sub-problem and lifted mapping, the replan's schedule scratch, the
	// dispatch list of an execution step and the state-probe resources.
	// Nothing keeps them past the activation.
	jobs     []*sched.Job
	mapping  []int
	problem  sched.Problem
	admit    core.AdmitScratch
	schedBuf sched.ScheduleScratch
	acts     []execAction
	probeRes []ResourceSample
	// ghostBufs alternate as reservation storage: pendingResv keeps the
	// previous activation's ghosts until the next replan flushes them,
	// and this activation's decisions write theirs before that.
	ghostBufs [2][]ghostRef
	// finalized guards Finalize's one-shot bookkeeping.
	finalized bool
}

// New builds an engine from cfg. The predictor (when present) is Reset so
// successive engines over the same predictor instance start clean.
func New(cfg Config) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Predictor != nil {
		cfg.Predictor.Reset()
	}
	r := &Engine{
		cfg: cfg,
		res: &Result{},
		trc: cfg.Tracer,
		ins: newInstruments(cfg.Metrics),
	}
	r.preds = r.predBuf[:0]
	if r.trc != nil {
		r.running = make([]*sched.Job, cfg.Platform.Len())
	}
	if cfg.Metrics != nil {
		if inst, ok := cfg.Solver.(telemetry.Instrumentable); ok {
			inst.AttachMetrics(cfg.Metrics)
		}
	}
	if cfg.Provenance {
		r.prov = telemetry.NewProvRecorder()
		if pa, ok := cfg.Solver.(telemetry.ProvenanceAware); ok {
			pa.AttachProvenance(r.prov)
		}
	}
	return r, nil
}

// Now returns the engine's current time.
func (r *Engine) Now() float64 { return r.now }

// InFlight returns the number of currently active jobs.
func (r *Engine) InFlight() int { return len(r.active) }

// Requests returns the number of activations so far.
func (r *Engine) Requests() int { return len(r.rec) }

// AdvanceTo executes the standing schedule up to time t. Times before
// the engine's current time are a no-op, so a wall-clock driver may call
// it freely. It never fails; the error keeps the Driver signature.
func (r *Engine) AdvanceTo(t float64) error {
	r.advance(t)
	return nil
}

// Activate runs one full RM activation for request req with driver-issued
// id idx: advance to the arrival, charge decision overhead, assemble the
// S̄ problem, run the admission protocol, apply the mapping and rebuild
// the standing plan. Ids must be issued densely from 0 in activation
// order (they index the per-request records). It is the one-request
// epoch closing at the arrival.
func (r *Engine) Activate(idx int, req trace.Request) (Outcome, error) {
	reqs := [1]trace.Request{req}
	var outs [1]Outcome
	if err := r.activate(idx, reqs[:], req.Arrival, outs[:]); err != nil {
		return Outcome{}, err
	}
	return outs[0], nil
}

// ActivateEpoch admits reqs — arrival-ordered, with dense driver ids
// startIdx, startIdx+1, ... — as one batch epoch that closes at time
// close, deciding them together at max(now, close + overhead).
//
// The paper's protocol is strictly one-by-one: every arrival triggers a
// full solver activation, so at scale solver setup (problem assembly,
// prediction, replanning) dominates — a burst of k arrivals pays k
// replans although only the last plan survives. An epoch amortises that:
// the arrivals queue (executing nothing — they are not yet admitted), the
// per-activation overhead (predictor overhead, OverheadHook) is charged
// once, and the decisions are taken sequentially at the close. Earlier
// epoch admissions are active state for later ones, so the decision
// sequence is the paper's protocol evaluated at a single deferred
// decision time; only the final decision's reservation plan is
// installed, and the standing schedule is rebuilt once per epoch
// (DESIGN.md §12.3 discusses how this differs from the paper's
// semantics).
func (r *Engine) ActivateEpoch(startIdx int, reqs []trace.Request, close float64) ([]Outcome, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	outs := make([]Outcome, len(reqs))
	if err := r.activate(startIdx, reqs, close, outs); err != nil {
		return nil, err
	}
	return outs, nil
}

// activate is the one activation path behind Activate and ActivateEpoch.
// It validates and takes in every request (recording it, executing the
// standing plan up to its arrival, observing it for prediction), charges
// the decision overhead once, makes one forecast that constrains every
// decision, and decides the requests in order at the shared decision
// time, writing their outcomes to outs. The closing decision's
// reservations are then installed by one replan. State probes fire per
// decision; the closing one fires after the replan, so it reports the
// installed plan, while earlier ones show the pre-epoch reservations.
func (r *Engine) activate(startIdx int, reqs []trace.Request, close float64, outs []Outcome) error {
	if startIdx != len(r.rec) {
		return fmt.Errorf("engine: activation id %d out of order (want %d)", startIdx, len(r.rec))
	}
	for i, req := range reqs {
		if err := req.Check(r.cfg.TaskSet); err != nil {
			return fmt.Errorf("engine: request %d: %w", startIdx+i, err)
		}
		if i > 0 && req.Arrival < reqs[i-1].Arrival {
			return fmt.Errorf("engine: epoch requests out of arrival order at %d", startIdx+i)
		}
	}

	for i, req := range reqs {
		idx := startIdx + i
		r.rec = append(r.rec, JobRecord{
			ID:          idx,
			Type:        req.Type,
			Arrival:     req.Arrival,
			AbsDeadline: req.Arrival + req.Deadline,
		})
		r.res.Requests++
		r.ins.requests.Inc()
		r.advance(req.Arrival)
		// Emitted after advancing so the stream stays time-ordered: the
		// execution events between two arrivals carry earlier timestamps.
		if r.trc != nil {
			e := telemetry.NewEvent(req.Arrival, telemetry.EvArrival)
			e.Req = idx
			e.Task = req.Type
			e.Value = req.Arrival + req.Deadline
			r.trc.Emit(e)
		}
		if r.cfg.Predictor != nil {
			r.cfg.Predictor.Observe(idx, req)
		}
	}

	var overhead float64
	if r.cfg.Predictor != nil {
		overhead += r.cfg.Predictor.Overhead()
	}
	if r.cfg.OverheadHook != nil {
		overhead += r.cfg.OverheadHook(startIdx, reqs[0].Arrival)
	}
	r.advance(math.Max(r.now, close+overhead))
	if r.cfg.Audit {
		if err := r.auditState(startIdx); err != nil {
			return err
		}
	}
	r.forecast(startIdx)

	last := len(reqs) - 1
	r.ghostBufs[0], r.ghostBufs[1] = r.ghostBufs[1], r.ghostBufs[0]
	ghosts := r.ghostBufs[0][:0]
	for i, req := range reqs {
		var err error
		if outs[i], ghosts, err = r.decide(startIdx+i, req, ghosts); err != nil {
			return err
		}
		if i < last {
			r.probe(startIdx + i)
		}
	}

	// One replan, installing only the closing decision's reservations:
	// earlier ones were planning constraints of decisions already
	// superseded, as each one-by-one replan replaces the previous plan.
	for _, g := range ghosts {
		r.ins.resvPlanned.Inc()
		if r.trc != nil {
			e := telemetry.NewEvent(r.now, telemetry.EvReservationPlanned)
			e.Req = startIdx + last
			e.Res = g.res
			e.Value = g.job.Arrival
			r.trc.Emit(e)
		}
	}
	// A rejection installs no reservation but still drops the stale one
	// (its request has now arrived), keeping the standing mappings.
	r.ghostBufs[0] = ghosts
	if err := r.replan(ghosts); err != nil {
		return err
	}
	r.probe(startIdx + last)
	return nil
}

// forecast refills r.preds with the planning jobs of the predictor's
// forecast: none without a predictor, the paper's single next request,
// or Lookahead steps from a MultiPredictor.
func (r *Engine) forecast(req int) {
	r.preds = r.preds[:0]
	if r.cfg.Predictor == nil {
		return
	}
	var preds []predict.Prediction
	if mp, ok := r.cfg.Predictor.(predict.MultiPredictor); ok && r.cfg.Lookahead > 1 {
		preds = mp.PredictK(r.cfg.Lookahead)
	} else if pred, ok := r.cfg.Predictor.Predict(); ok {
		preds = []predict.Prediction{pred}
	}
	for step, pred := range preds {
		if pred.Type < 0 || pred.Type >= r.cfg.TaskSet.Len() || pred.Deadline <= 0 {
			continue
		}
		pj := sched.NewJob(-1-step, r.cfg.TaskSet.Type(pred.Type), pred.Arrival, pred.Deadline)
		pj.Predicted = true
		r.preds = append(r.preds, pj)
		r.ins.predictions.Inc()
		if r.trc != nil {
			e := telemetry.NewEvent(r.now, telemetry.EvPrediction)
			e.Req = req
			e.Task = pred.Type
			e.Value = pred.Arrival
			r.trc.Emit(e)
		}
	}
}

// decide runs the admission protocol for request idx at the current
// time: it assembles the S̄ problem (active jobs, the arriving job, the
// forecast), solves it and, on admission, applies the mapping. It
// returns the outcome and the mapped predicted jobs, reusing ghosts'
// storage (empty on rejection). The problem lives in the engine's
// activation buffers.
func (r *Engine) decide(idx int, req trace.Request, ghosts []ghostRef) (Outcome, []ghostRef, error) {
	newJob := sched.NewJob(idx, r.cfg.TaskSet.Type(req.Type), req.Arrival, req.Deadline)
	jobs := append(r.jobs[:0], r.active...)
	newIdx := len(jobs)
	jobs = append(jobs, newJob)
	jobs = append(jobs, r.preds...)
	r.jobs = jobs

	problem := &r.problem
	*problem = sched.Problem{
		Platform: r.cfg.Platform,
		Time:     r.now,
		Jobs:     jobs,
		Policy:   r.cfg.Policy,
	}
	if r.trc != nil {
		e := telemetry.NewEvent(r.now, telemetry.EvSolverInvoked)
		e.Req = idx
		e.Task = req.Type
		e.Value = float64(len(jobs))
		r.trc.Emit(e)
	}
	measuring := r.trc != nil || r.ins.solverSec != nil
	var solveStart time.Time
	if measuring {
		solveStart = time.Now()
	}
	r.prov.Reset()
	decision, admitted, solveErr := core.AdmitProv(r.cfg.Solver, problem, r.prov, &r.admit)
	var wall time.Duration
	if measuring {
		wall = time.Since(solveStart)
		r.ins.solverSec.Observe(wall.Seconds())
	}
	if solveErr != nil {
		// A fallible solver failed outright (core.FallibleSolver) with no
		// resilience chain to absorb it. Report the failure with its
		// request coordinates and abort the run — continuing would
		// silently convert a solver outage into rejections.
		if r.trc != nil {
			e := telemetry.NewEvent(r.now, telemetry.EvSolverReturned)
			e.Req = idx
			e.WallNs = wall.Nanoseconds()
			e.Reason = telemetry.ReasonError
			r.trc.Emit(e)
		}
		return Outcome{}, nil, fmt.Errorf("engine: solver failed at request %d (t=%.6f): %w", idx, r.now, solveErr)
	}
	if r.trc != nil {
		e := telemetry.NewEvent(r.now, telemetry.EvSolverReturned)
		e.Req = idx
		e.WallNs = wall.Nanoseconds()
		if admitted {
			e.Reason = telemetry.ReasonFeasible
			e.Value = decision.Energy
		} else {
			e.Reason = telemetry.ReasonInfeasible
		}
		r.trc.Emit(e)
	}
	if !admitted {
		r.res.Rejected++
		r.ins.rejected.Inc()
		r.reasonCounter("sim.reject_reason.", telemetry.ReasonNoFeasibleMapping)
		if r.trc != nil {
			e := telemetry.NewEvent(r.now, telemetry.EvReject)
			e.Req = idx
			e.Task = req.Type
			e.Reason = telemetry.ReasonNoFeasibleMapping
			r.trc.Emit(e)
		}
		r.emitDecision(idx, req.Type, sched.Unmapped, telemetry.ReasonNoFeasibleMapping, 0)
		return Outcome{
			Req:      idx,
			Time:     r.now,
			Resource: sched.Unmapped,
			Reason:   telemetry.ReasonNoFeasibleMapping,
		}, ghosts[:0], nil
	}
	r.res.Accepted++
	r.ins.accepted.Inc()
	r.rec[idx].Accepted = true
	r.apply(problem, decision, newJob)
	ghosts = ghosts[:0]
	for i, j := range problem.Jobs {
		if j.Predicted && decision.Mapping[i] != sched.Unmapped {
			ghosts = append(ghosts, ghostRef{job: j, res: decision.Mapping[i]})
		}
	}
	admitReason := telemetry.ReasonPlain
	switch {
	case len(ghosts) > 0:
		admitReason = telemetry.ReasonWithReservation
	case len(r.preds) > 0:
		admitReason = telemetry.ReasonPredictionDropped
	}
	r.reasonCounter("sim.admit_reason.", admitReason)
	if r.trc != nil {
		e := telemetry.NewEvent(r.now, telemetry.EvAdmit)
		e.Req = idx
		e.Task = req.Type
		e.Res = decision.Mapping[newIdx]
		e.Reason = admitReason
		r.trc.Emit(e)
	}
	r.emitDecision(idx, req.Type, decision.Mapping[newIdx], admitReason, decision.Energy)
	r.ins.activeJobs.Observe(float64(len(r.active)))
	r.ins.activePeak.Set(float64(len(r.active)))
	return Outcome{
		Req:      idx,
		Time:     r.now,
		Accepted: true,
		Resource: decision.Mapping[newIdx],
		Reason:   admitReason,
		Energy:   decision.Energy,
	}, ghosts, nil
}

// Drain executes the remaining work to completion in engine time. The
// discrete-event simulator calls this after the last arrival; a
// wall-clock driver that must not skip ahead of its clock drains by
// polling AdvanceTo/InFlight instead and calls Drain only to settle the
// final bookkeeping. It never fails; the error keeps the Driver
// signature.
func (r *Engine) Drain() error {
	r.advance(math.Inf(1))
	return nil
}

// Finalize reports the fate of standing reservations, publishes the final
// state sample and assembles the Result. Idempotent: later calls return
// the same Result without re-running the bookkeeping.
func (r *Engine) Finalize() *Result {
	if r.finalized {
		return r.res
	}
	r.finalized = true
	r.flushReservations()
	r.probe(-1)
	r.res.Jobs = r.rec
	for _, segs := range r.exec {
		r.res.Execution = append(r.res.Execution, segs...)
	}
	if r.cfg.Metrics != nil {
		if r.cfg.Tracer != nil {
			// Ring overwrites silently lose events; surface the count so
			// summaries and /metrics can warn about a lossy recording.
			r.cfg.Metrics.Gauge("telemetry.tracer.dropped").Set(float64(r.cfg.Tracer.Dropped()))
		}
		r.res.Telemetry = r.cfg.Metrics.Snapshot()
	}
	return r.res
}
