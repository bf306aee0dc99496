// Resilience layer: budgeted solving with a degradation chain.
//
// The paper requires the RM to decide at every arrival within a bounded
// overhead (Sec 5.5), but the exact reference solver has unbounded
// worst-case latency, and a production RM must also survive solver
// failures. BudgetedSolver makes degraded operation first-class: it gives
// any Solver a per-activation budget and, when a stage exhausts its budget
// without a usable answer, errors, or panics, falls through a configurable
// chain of progressively cheaper solvers. The terminal behaviour is always
// reject-only — refusing the arriving request is sound under the admission
// protocol (the standing mappings are untouched), so the chain degrades
// admission quality but never the deadline invariant.

package core

import (
	"fmt"
	"time"

	"predrm/internal/sched"
	"predrm/internal/telemetry"
)

// Budget bounds one solver activation. The zero value means unlimited.
type Budget struct {
	// Nodes caps the search nodes a BudgetAware solver may expand in one
	// Solve.
	Nodes int
	// Wall caps the wall-clock time of one Solve. Wall budgets make
	// decisions timing-dependent and therefore nondeterministic across
	// runs; prefer Nodes wherever reproducibility matters.
	Wall time.Duration
}

// IsZero reports whether the budget imposes no bound.
func (b Budget) IsZero() bool { return b.Nodes <= 0 && b.Wall <= 0 }

// BudgetUse reports what a budgeted solve consumed.
type BudgetUse struct {
	// Nodes is the number of search nodes expanded.
	Nodes int
	// Exhausted reports that the budget ran out before the search space
	// was exhausted; the decision is then the best anytime incumbent.
	Exhausted bool
}

// BudgetAware is implemented by solvers whose search can be bounded per
// activation (exact.Optimal). ApplyBudget is called before each Solve
// attempt; BudgetUsed reports on the most recent one.
type BudgetAware interface {
	Solver
	ApplyBudget(Budget)
	BudgetUsed() BudgetUse
}

// FallibleSolver is implemented by solvers that can fail outright —
// injected faults (internal/faultinject), backend outages — instead of
// merely returning an infeasible decision. AdmitProv and BudgetedSolver
// prefer SolveChecked when available; plain Solve must map failures to an
// infeasible decision.
type FallibleSolver interface {
	Solver
	SolveChecked(p *sched.Problem) (Decision, error)
}

// RejectOnly is the terminal degradation mode: it refuses every problem,
// so the admission protocol rejects the arriving request and keeps the
// standing mappings untouched. Useful as an explicit chain stage and as
// the ablation floor ("what if the RM could only say no").
type RejectOnly struct{}

var _ Solver = RejectOnly{}

// Solve returns the all-unmapped infeasible decision.
func (RejectOnly) Solve(p *sched.Problem) Decision { return rejectAll(p) }

// rejectAll builds the infeasible decision leaving every job unmapped.
func rejectAll(p *sched.Problem) Decision {
	mapping := make([]int, len(p.Jobs))
	for i := range mapping {
		mapping[i] = sched.Unmapped
	}
	return Decision{Mapping: mapping, Feasible: false}
}

// Stage is one solver in a BudgetedSolver chain.
type Stage struct {
	// Name labels the stage in telemetry and trace events.
	Name string
	// Solver answers the problems this stage is asked.
	Solver Solver
}

// BudgetedSolver wraps a chain of solvers with a per-activation budget and
// falls through the chain on failure: a stage that errors (or panics), or
// that exhausts its budget without producing a feasible decision, hands
// the problem to the next stage. A stage that exhausts its budget but
// still holds a feasible anytime incumbent (exact.Optimal seeds its search
// with Algorithm 1, so truncation never loses feasibility) is used as-is
// and only accounted as a budget exhaustion. When every stage fails the
// solver degrades to reject-only, which is always sound.
//
// BudgetedSolver itself never errors and never panics; it is the outermost
// solver a simulation should see when faults may occur. Like the solvers
// it wraps it is not safe for concurrent use.
type BudgetedSolver struct {
	// Stages are tried in order. An empty chain is pure reject-only.
	Stages []Stage
	// Budget is applied to every BudgetAware stage before its attempt.
	Budget Budget
	// Tracer, when non-nil, receives a solver_fallback event for every
	// chain transition, timestamped with the problem's simulated time.
	Tracer *telemetry.Tracer

	// Telemetry instruments (nil-safe no-ops until AttachMetrics).
	mFallbacks, mRejectOnly *telemetry.Counter
	mExhausted, mErrors     *telemetry.Counter
	hDepth, hNodes          *telemetry.Histogram

	// prov, when attached, records one StageHop per chain attempt with the
	// stage's outcome, error text, and node/wall spend.
	prov *telemetry.ProvRecorder
}

var _ Solver = (*BudgetedSolver)(nil)
var _ telemetry.Instrumentable = (*BudgetedSolver)(nil)
var _ telemetry.ProvenanceAware = (*BudgetedSolver)(nil)

// AttachMetrics registers the chain's degraded-mode instruments on reg —
// counters resilience.fallbacks, resilience.reject_only,
// resilience.budget_exhausted and resilience.stage_errors, histogram
// resilience.fallback_depth (stage index serving each activation) and
// resilience.budget_nodes (nodes consumed per budgeted solve) — and
// forwards the registry to every stage solver that is Instrumentable.
func (b *BudgetedSolver) AttachMetrics(reg *telemetry.Registry) {
	b.mFallbacks = reg.Counter("resilience.fallbacks")
	b.mRejectOnly = reg.Counter("resilience.reject_only")
	b.mExhausted = reg.Counter("resilience.budget_exhausted")
	b.mErrors = reg.Counter("resilience.stage_errors")
	b.hDepth = reg.Histogram("resilience.fallback_depth", telemetry.CountBuckets)
	b.hNodes = reg.Histogram("resilience.budget_nodes", telemetry.NodeBuckets)
	for _, st := range b.Stages {
		if inst, ok := st.Solver.(telemetry.Instrumentable); ok {
			inst.AttachMetrics(reg)
		}
	}
}

// AttachProvenance installs the decision-provenance recorder and forwards
// it to every stage solver that is ProvenanceAware, so one recorder
// collects the whole chain's causal record.
func (b *BudgetedSolver) AttachProvenance(rec *telemetry.ProvRecorder) {
	b.prov = rec
	for _, st := range b.Stages {
		if pa, ok := st.Solver.(telemetry.ProvenanceAware); ok {
			pa.AttachProvenance(rec)
		}
	}
}

// Solve runs the chain on p. It never fails: the worst outcome is the
// reject-only decision.
func (b *BudgetedSolver) Solve(p *sched.Problem) Decision {
	recording := b.prov.Enabled()
	for si, st := range b.Stages {
		ba, bounded := st.Solver.(BudgetAware)
		if bounded {
			ba.ApplyBudget(b.Budget)
		}
		var stageStart time.Time
		if recording {
			stageStart = time.Now()
		}
		d, err, panicked := attempt(st.Solver, p)
		var use BudgetUse
		if bounded {
			use = ba.BudgetUsed()
			b.hNodes.Observe(float64(use.Nodes))
			if use.Exhausted {
				b.mExhausted.Inc()
			}
		}
		hop := telemetry.StageHop{Stage: si, Name: st.Name, Nodes: use.Nodes}
		if recording {
			hop.WallNs = time.Since(stageStart).Nanoseconds()
		}
		switch {
		case err != nil:
			b.mErrors.Inc()
			reason := telemetry.ReasonError
			if panicked {
				reason = telemetry.ReasonPanic
			}
			if recording {
				hop.Outcome, hop.Err = reason, err.Error()
				b.prov.Stage(hop)
			}
			b.fellThrough(p, si+1, reason)
			continue
		case use.Exhausted && !d.Feasible:
			// The budget ran out before any incumbent was found; a deeper
			// (cheaper, bounded) stage may still admit.
			if recording {
				hop.Outcome = telemetry.StageBudget
				b.prov.Stage(hop)
			}
			b.fellThrough(p, si+1, telemetry.ReasonBudget)
			continue
		}
		if recording {
			hop.Outcome = telemetry.StageServed
			b.prov.Stage(hop)
		}
		b.hDepth.Observe(float64(si))
		return d
	}
	// The whole chain failed: degrade to reject-only.
	b.mRejectOnly.Inc()
	b.hDepth.Observe(float64(len(b.Stages)))
	if recording {
		b.prov.Stage(telemetry.StageHop{
			Stage: len(b.Stages), Outcome: telemetry.StageRejectOnly,
		})
	}
	b.emit(p, len(b.Stages), telemetry.ReasonRejectOnly)
	return rejectAll(p)
}

// fellThrough accounts one chain transition to stage `to`.
func (b *BudgetedSolver) fellThrough(p *sched.Problem, to int, reason string) {
	b.mFallbacks.Inc()
	if to < len(b.Stages) {
		b.emit(p, to, reason)
	}
	// The terminal transition is emitted by Solve as reject_only.
}

// emit reports a solver_fallback trace event. Value is the stage index
// fallen to (len(Stages) = reject-only).
func (b *BudgetedSolver) emit(p *sched.Problem, to int, reason string) {
	if b.Tracer == nil {
		return
	}
	e := telemetry.NewEvent(p.Time, telemetry.EvSolverFallback)
	e.Req = arrivingID(p)
	e.Value = float64(to)
	e.Reason = reason
	b.Tracer.Emit(e)
}

// attempt runs one stage, converting errors and panics into a Go error so
// the chain can absorb them. panicked distinguishes a recovered panic from
// an ordinary solver error for the fallback reason vocabulary.
func attempt(s Solver, p *sched.Problem) (d Decision, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("core: solver panicked: %v", r)
			panicked = true
		}
	}()
	if fs, ok := s.(FallibleSolver); ok {
		d, err = fs.SolveChecked(p)
		return d, err, false
	}
	return s.Solve(p), nil, false
}

// arrivingID returns the trace id of the arriving request in p — the
// largest job id, since active jobs are earlier requests and predicted
// planning copies carry negative ids — or -1 when the problem
// holds none (solver invoked outside the admission protocol).
func arrivingID(p *sched.Problem) int {
	id := -1
	for _, j := range p.Jobs {
		if j.ID > id {
			id = j.ID
		}
	}
	return id
}

// AdmitScratch holds the reusable buffers of the admission protocol's
// fallback (Sec 4.3): the sub-problem predicted jobs are dropped from and
// the full-length mapping a sub-problem decision is lifted onto. The zero
// value is ready to use; a warm scratch makes the fallback
// allocation-free apart from what the solver allocates. Not safe for
// concurrent use.
type AdmitScratch struct {
	sub  sched.Problem
	full []int
}

// AdmitProv is the Sec 4.1 admission protocol for solvers that can fail
// (FallibleSolver), with decision-provenance recording. Any Solve failure
// aborts the protocol and is returned to the caller, with no decision
// taken; wrap fallible solvers in a BudgetedSolver to absorb failures into
// graceful degradation instead. For plain solvers it behaves exactly like
// Admit. Each protocol attempt (the drop-a-prediction loop) is opened on
// rec before its solve and closed with the solve's outcome, so candidate
// verdicts and chain hops recorded by the solver are stamped with the
// attempt that produced them. A nil rec records nothing.
//
// sc hosts the fallback's sub-problem and lifted mapping; the returned
// Decision.Mapping may alias it and is valid until the next call with the
// same sc. A nil sc uses fresh buffers.
func AdmitProv(s Solver, p *sched.Problem, rec *telemetry.ProvRecorder, sc *AdmitScratch) (d Decision, admitted bool, err error) {
	if sc == nil {
		sc = new(AdmitScratch)
	}
	fs, fallible := s.(FallibleSolver)
	cur := p
	for {
		rec.BeginAttempt(len(cur.Jobs), countPredicted(cur.Jobs))
		if fallible {
			d, err = fs.SolveChecked(cur)
			if err != nil {
				rec.EndAttempt(false, 0)
				return Decision{}, false, err
			}
		} else {
			d = s.Solve(cur)
		}
		rec.EndAttempt(d.Feasible, d.Energy)
		if d.Feasible {
			if cur == p {
				return d, true, nil
			}
			return sc.lift(p.Jobs, cur.Jobs, d), true, nil
		}
		// Drop the latest-arriving predicted job, if any remain.
		drop := -1
		for i, j := range cur.Jobs {
			if j.Predicted && (drop == -1 || j.Arrival > cur.Jobs[drop].Arrival) {
				drop = i
			}
		}
		if drop == -1 {
			return sc.lift(p.Jobs, nil, Decision{}), false, nil
		}
		cur = sc.without(cur, drop)
	}
}

// without returns cur with Jobs[drop] removed, built in the scratch
// sub-problem: copied from the caller's problem on the first drop, edited
// in place on later ones. Jobs are shared, not cloned.
func (sc *AdmitScratch) without(cur *sched.Problem, drop int) *sched.Problem {
	q := &sc.sub
	if cur != q {
		jobs := q.Jobs[:0]
		*q = *cur
		q.Jobs = append(jobs, cur.Jobs...)
	}
	q.Jobs = append(q.Jobs[:drop], q.Jobs[drop+1:]...)
	return q
}

// lift maps decision d over the job subsequence sub onto the job list all
// in the scratch mapping with one two-pointer walk; the jobs sub lacks
// become Unmapped (every job for an empty sub: the rejection).
func (sc *AdmitScratch) lift(all, sub []*sched.Job, d Decision) Decision {
	full := sc.full[:0]
	k := 0
	for _, j := range all {
		r := sched.Unmapped
		if k < len(sub) && sub[k] == j {
			r = d.Mapping[k]
			k++
		}
		full = append(full, r)
	}
	sc.full = full
	d.Mapping = full
	return d
}

// countPredicted counts the predicted planning jobs in jobs.
func countPredicted(jobs []*sched.Job) int {
	n := 0
	for _, j := range jobs {
		if j.Predicted {
			n++
		}
	}
	return n
}
