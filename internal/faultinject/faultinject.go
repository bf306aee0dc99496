// Package faultinject provides deterministic fault injection for the
// resource manager: solver errors, decision-latency spikes, and predictor
// outages/corruption, driven by a seed-only Plan.
//
// Every fault decision is a pure function of (plan seed, fault stream,
// site key) — the site key is the activation's simulated time for solver
// faults and the request index for latency and predictor faults — so a
// plan fires at exactly the same sites on every run regardless of solver
// internals, goroutine scheduling, or wall-clock speed. No time.Now enters
// any decision; two simulations of the same trace under the same plan are
// byte-identical.
//
// The wrappers compose with the resilience layer: wrap the primary stage
// of a core.BudgetedSolver with Plan.Solver so injected errors fall
// through the chain instead of aborting the run, or wrap a bare solver to
// test that failures propagate promptly (internal/experiments does both).
package faultinject

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"

	"predrm/internal/core"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// Fault streams: each concern draws from an independent deterministic
// stream so enabling one fault type never shifts another's sites.
const (
	streamSolver uint64 = 0xf5a1 + iota
	streamLatency
	streamOutage
	streamCorrupt
	streamCorruptShift
)

// Plan is a deterministic fault plan. The zero value injects nothing.
type Plan struct {
	// Seed drives every fault decision.
	Seed uint64
	// SolverErrorRate is the probability an activation's wrapped solver
	// fails outright (all Solve calls of that activation fail together —
	// faults are keyed on the activation's simulated time).
	SolverErrorRate float64
	// LatencyRate is the per-request probability of a decision-latency
	// spike of LatencySpike simulated time units.
	LatencyRate float64
	// LatencySpike is the spike magnitude (simulated time).
	LatencySpike float64
	// PredictorOutageRate is the per-request probability the predictor
	// returns no forecast.
	PredictorOutageRate float64
	// PredictorCorruptRate is the per-request probability a forecast's
	// arrival time is shifted by up to ±CorruptShift.
	PredictorCorruptRate float64
	// CorruptShift is the maximum arrival-time corruption (simulated time).
	CorruptShift float64
}

// Validate checks the plan's parameters.
func (p *Plan) Validate() error {
	for _, r := range []struct {
		name string
		v    float64
	}{
		{"solver-error", p.SolverErrorRate},
		{"latency-rate", p.LatencyRate},
		{"pred-outage", p.PredictorOutageRate},
		{"pred-corrupt", p.PredictorCorruptRate},
	} {
		if r.v < 0 || r.v > 1 {
			return fmt.Errorf("faultinject: %s %g outside [0,1]", r.name, r.v)
		}
	}
	switch {
	case p.LatencySpike < 0:
		return errors.New("faultinject: negative latency magnitude")
	case p.CorruptShift < 0:
		return errors.New("faultinject: negative corrupt-shift")
	case p.LatencyRate > 0 && p.LatencySpike == 0:
		return errors.New("faultinject: latency-rate needs latency (spike magnitude)")
	case p.PredictorCorruptRate > 0 && p.CorruptShift == 0:
		return errors.New("faultinject: pred-corrupt needs corrupt-shift")
	}
	return nil
}

// IsZero reports whether the plan injects nothing.
func (p *Plan) IsZero() bool {
	return p.SolverErrorRate == 0 && p.LatencyRate == 0 &&
		p.PredictorOutageRate == 0 && p.PredictorCorruptRate == 0
}

// ParsePlan parses the -fault-plan flag syntax: comma-separated key=value
// pairs with keys seed, solver-error, latency-rate, latency, pred-outage,
// pred-corrupt, corrupt-shift. Example:
//
//	seed=7,solver-error=0.2,latency-rate=0.1,latency=0.5,pred-outage=0.1
func ParsePlan(s string) (Plan, error) {
	var p Plan
	for _, field := range strings.Split(s, ",") {
		field = strings.TrimSpace(field)
		if field == "" {
			continue
		}
		key, val, ok := strings.Cut(field, "=")
		if !ok {
			return Plan{}, fmt.Errorf("faultinject: %q is not key=value", field)
		}
		if key == "seed" {
			seed, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Plan{}, fmt.Errorf("faultinject: seed %q: %v", val, err)
			}
			p.Seed = seed
			continue
		}
		f, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return Plan{}, fmt.Errorf("faultinject: %s=%q: %v", key, val, err)
		}
		switch key {
		case "solver-error":
			p.SolverErrorRate = f
		case "latency-rate":
			p.LatencyRate = f
		case "latency":
			p.LatencySpike = f
		case "pred-outage":
			p.PredictorOutageRate = f
		case "pred-corrupt":
			p.PredictorCorruptRate = f
		case "corrupt-shift":
			p.CorruptShift = f
		default:
			return Plan{}, fmt.Errorf("faultinject: unknown key %q", key)
		}
	}
	if err := p.Validate(); err != nil {
		return Plan{}, err
	}
	return p, nil
}

// roll returns the deterministic uniform [0,1) draw for one fault site.
// Sites are independent: the draw depends only on (seed, stream, key).
func (p *Plan) roll(stream, key uint64) float64 {
	return p.site(stream, key).Float64()
}

// site derives the site's private generator, for faults that need more
// than one variate.
func (p *Plan) site(stream, key uint64) *rng.Rand {
	// Mix with distinct odd constants so nearby keys land far apart.
	return rng.New(p.Seed ^ stream*0x9e3779b97f4a7c15 ^ key*0xbf58476d1ce4e5b9)
}

// Solver wraps inner with planned error injection. The wrapped solver
// implements core.FallibleSolver: SolveChecked fails on planned
// activations (keyed by the problem's simulated time, so every Solve of
// one admission protocol run fails together), while plain Solve maps a
// planned fault to an infeasible (reject) decision. tracer may be nil.
func (p *Plan) Solver(inner core.Solver, tracer *telemetry.Tracer) *FaultySolver {
	return &FaultySolver{inner: inner, plan: p, trc: tracer}
}

// FaultySolver injects planned solver errors around an inner solver.
type FaultySolver struct {
	inner core.Solver
	plan  *Plan
	trc   *telemetry.Tracer

	mErrors *telemetry.Counter
}

var _ core.FallibleSolver = (*FaultySolver)(nil)
var _ telemetry.Instrumentable = (*FaultySolver)(nil)

// AttachMetrics registers the counter faultinject.solver_errors and
// forwards the registry to the inner solver when it is Instrumentable.
func (f *FaultySolver) AttachMetrics(reg *telemetry.Registry) {
	f.mErrors = reg.Counter("faultinject.solver_errors")
	if inst, ok := f.inner.(telemetry.Instrumentable); ok {
		inst.AttachMetrics(reg)
	}
}

// faulted reports whether the plan fails the activation at time t.
func (f *FaultySolver) faulted(t float64) bool {
	rate := f.plan.SolverErrorRate
	return rate > 0 && f.plan.roll(streamSolver, math.Float64bits(t)) < rate
}

// SolveChecked solves pr unless the plan fails this activation.
func (f *FaultySolver) SolveChecked(pr *sched.Problem) (core.Decision, error) {
	if f.faulted(pr.Time) {
		f.mErrors.Inc()
		if f.trc != nil {
			e := telemetry.NewEvent(pr.Time, telemetry.EvFaultInjected)
			e.Req = ArrivingID(pr)
			e.Reason = telemetry.ReasonSolverError
			f.trc.Emit(e)
		}
		return core.Decision{}, fmt.Errorf("faultinject: planned solver fault at t=%.6f", pr.Time)
	}
	if fs, ok := f.inner.(core.FallibleSolver); ok {
		return fs.SolveChecked(pr)
	}
	return f.inner.Solve(pr), nil
}

// Solve maps planned faults to infeasible decisions (core.Solver).
func (f *FaultySolver) Solve(pr *sched.Problem) core.Decision {
	d, err := f.SolveChecked(pr)
	if err != nil {
		mapping := make([]int, len(pr.Jobs))
		for i := range mapping {
			mapping[i] = sched.Unmapped
		}
		return core.Decision{Mapping: mapping, Feasible: false}
	}
	return d
}

// ApplyBudget forwards the budget to the inner solver (core.BudgetAware
// passthrough, so a FaultySolver can wrap a budgeted chain stage).
func (f *FaultySolver) ApplyBudget(b core.Budget) {
	if ba, ok := f.inner.(core.BudgetAware); ok {
		ba.ApplyBudget(b)
	}
}

// BudgetUsed forwards the inner solver's budget report.
func (f *FaultySolver) BudgetUsed() core.BudgetUse {
	if ba, ok := f.inner.(core.BudgetAware); ok {
		return ba.BudgetUsed()
	}
	return core.BudgetUse{}
}

// ArrivingID returns the trace id of the arriving request in pr (the
// largest job id; predicted planning copies are negative),
// or -1 when none.
func ArrivingID(pr *sched.Problem) int {
	id := -1
	for _, j := range pr.Jobs {
		if j.ID > id {
			id = j.ID
		}
	}
	return id
}

// Hook returns an engine.Config.OverheadHook injecting planned latency
// spikes: on planned requests the decision is delayed by LatencySpike
// simulated time units. tracer and reg may be nil.
func (p *Plan) Hook(tracer *telemetry.Tracer, reg *telemetry.Registry) func(req int, arrival float64) float64 {
	if p.LatencyRate == 0 {
		return nil
	}
	spikes := reg.Counter("faultinject.latency_spikes")
	return func(req int, arrival float64) float64 {
		if p.roll(streamLatency, uint64(req)) >= p.LatencyRate {
			return 0
		}
		spikes.Inc()
		if tracer != nil {
			e := telemetry.NewEvent(arrival, telemetry.EvFaultInjected)
			e.Req = req
			e.Value = p.LatencySpike
			e.Reason = telemetry.ReasonLatencySpike
			tracer.Emit(e)
		}
		return p.LatencySpike
	}
}

// Predictor wraps inner with planned outages and forecast corruption,
// keyed by the index of the last observed request. tracer and reg may be
// nil. The wrapper intentionally does not forward predict.MultiPredictor:
// under an active fault plan the simulator degrades to single-step
// prediction.
func (p *Plan) Predictor(inner predict.Predictor, tracer *telemetry.Tracer, reg *telemetry.Registry) predict.Predictor {
	return &faultyPredictor{
		inner:     inner,
		plan:      p,
		trc:       tracer,
		outages:   reg.Counter("faultinject.predictor_outages"),
		corrupted: reg.Counter("faultinject.predictor_corruptions"),
		last:      -1,
	}
}

// faultyPredictor injects predictor outages and corruption.
type faultyPredictor struct {
	inner predict.Predictor
	plan  *Plan
	trc   *telemetry.Tracer

	outages, corrupted *telemetry.Counter

	last     int
	lastTime float64
}

var _ predict.Predictor = (*faultyPredictor)(nil)

// Observe forwards the observation, remembering the site key.
func (f *faultyPredictor) Observe(idx int, req trace.Request) {
	f.last = idx
	f.lastTime = req.Arrival
	f.inner.Observe(idx, req)
}

// Predict forwards to the inner predictor unless the plan blacks out or
// corrupts this activation's forecast.
func (f *faultyPredictor) Predict() (predict.Prediction, bool) {
	key := uint64(f.last)
	if r := f.plan.PredictorOutageRate; r > 0 && f.plan.roll(streamOutage, key) < r {
		f.outages.Inc()
		f.emit(telemetry.ReasonPredictorOutage, 0)
		return predict.Prediction{}, false
	}
	pred, ok := f.inner.Predict()
	if !ok {
		return pred, false
	}
	if r := f.plan.PredictorCorruptRate; r > 0 && f.plan.roll(streamCorrupt, key) < r {
		// Uniform shift in [-CorruptShift, CorruptShift], deterministic
		// per site.
		shift := f.plan.site(streamCorruptShift, key).Uniform(-f.plan.CorruptShift, f.plan.CorruptShift)
		pred.Arrival += shift
		f.corrupted.Inc()
		f.emit(telemetry.ReasonPredictorCorrupt, shift)
	}
	return pred, ok
}

// emit reports a predictor fault at the last observed arrival.
func (f *faultyPredictor) emit(reason string, value float64) {
	if f.trc == nil {
		return
	}
	e := telemetry.NewEvent(f.lastTime, telemetry.EvFaultInjected)
	e.Req = f.last
	e.Value = value
	e.Reason = reason
	f.trc.Emit(e)
}

// Overhead forwards the inner predictor's runtime cost.
func (f *faultyPredictor) Overhead() float64 { return f.inner.Overhead() }

// Reset forwards to the inner predictor and clears the site key.
func (f *faultyPredictor) Reset() {
	f.last = -1
	f.lastTime = 0
	f.inner.Reset()
}
