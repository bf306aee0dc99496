// Package milpform encodes the paper's MILP formulation (Sec 4.2) on top
// of this repository's own LP/branch-and-bound stack (internal/lp,
// internal/milp) and exposes it as a core.Solver.
//
// Encoding summary (big-M method, as in the paper):
//
//   - binaries x_{j,i} per (job, executable resource); resources on which
//     constraint (2) — cpm_{j,i} ≤ t_left_j — fails are eliminated up
//     front, and pinned jobs have their x fixed;
//   - constraint (1): Σ_i x_{j,i} = 1;
//   - constraint (3): cumulative EDF demand per resource over the
//     deadline-sorted task list (valid for every task whether or not it is
//     mapped there — the mapped predecessor's constraint dominates). On
//     non-preemptable resources a pinned occupant is ordered first;
//   - constraints (4)-(5): the predicted task starts no earlier than
//     max(s_p, end of earlier-deadline work);
//   - constraints (6)-(14): instead of the paper's chunk variables, the
//     planned preemption is encoded with indicator binaries: an SL2 task j
//     mapped with τ_p on resource i is delayed by the full cp_{p,i} iff
//     τ_p arrives before j's undelayed completion. This is the closed form
//     of the two-chunk split and is linear after one product
//     linearisation (w ≥ x_{p,i} + z_{j,i} − 1).
//
// Limitations, stated plainly: like the paper's own constraint set, the
// closed-form preemption encoding covers preemptable resources; this
// package therefore never maps the predicted task to a non-preemptable
// resource. A problem with several predicted jobs (the lookahead
// extension) only encodes the first; and future-released Fixed jobs
// are treated as ready now, which is
// conservative — the formulation may reject a schedulable instance but
// never accepts an unschedulable one. The combinatorial optimum in
// internal/exact has none of these restrictions and is what the
// experiments use; this package exists to reproduce the paper's
// formulation faithfully and to cross-validate the two solvers (see
// milpform_test.go).
package milpform

import (
	"math"
	"sort"

	"predrm/internal/core"
	"predrm/internal/lp"
	"predrm/internal/milp"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

// bigMFor returns a problem-scaled big-M: the total possible demand plus
// the decision window safely dominates every time expression in the
// formulation, and a tight M keeps the LP relaxation strong (a huge
// constant makes the branch-and-bound tree explode).
func bigMFor(p *sched.Problem) float64 {
	m := p.Window() + 1
	for _, j := range p.Jobs {
		worst := 0.0
		for i := 0; i < p.Platform.Len(); i++ {
			cpm := j.CPM(i, p.Policy)
			if cpm != task.NotExecutable && cpm > worst {
				worst = cpm
			}
		}
		m += worst
		if j.Predicted {
			m += math.Max(j.Arrival-p.Time, 0)
		}
	}
	return m
}

// Solver solves RM activations through the literal MILP formulation.
// The zero value is ready to use. Not safe for concurrent use.
type Solver struct {
	// MaxNodes caps the branch-and-bound tree (0 = milp.DefaultMaxNodes).
	MaxNodes int
	// LastStatus reports the most recent MILP outcome.
	LastStatus milp.Status

	// Telemetry (nil-safe no-ops until AttachMetrics). The registry is
	// also handed to the underlying branch and bound via milp.Options.
	metrics              *telemetry.Registry
	mSolves, mInfeasible *telemetry.Counter
	mVars                *telemetry.Histogram
}

var _ core.Solver = (*Solver)(nil)
var _ telemetry.Instrumentable = (*Solver)(nil)

// AttachMetrics registers the solver's instruments on reg: counters
// milpform.solves and milpform.infeasible, histogram milpform.vars (MILP
// columns per activation), plus the underlying milp.solves/milp.nodes/
// milp.truncated counters recorded by internal/milp.
func (s *Solver) AttachMetrics(reg *telemetry.Registry) {
	s.metrics = reg
	s.mSolves = reg.Counter("milpform.solves")
	s.mInfeasible = reg.Counter("milpform.infeasible")
	s.mVars = reg.Histogram("milpform.vars", telemetry.NodeBuckets)
}

// model is the variable bookkeeping for one activation.
type model struct {
	p    *sched.Problem
	prob milp.Problem
	// xIdx[j][i] is the column of x_{j,i}, or -1 when eliminated.
	xIdx [][]int
	next int
}

func (m *model) newVar(cost float64) int {
	idx := m.next
	m.next++
	m.prob.NumVars = m.next
	for len(m.prob.Objective) < m.next {
		m.prob.Objective = append(m.prob.Objective, 0)
	}
	m.prob.Objective[idx] = cost
	return idx
}

func (m *model) addConstraint(coeffs map[int]float64, sense lp.Sense, rhs float64) {
	maxIdx := -1
	for j := range coeffs {
		if j > maxIdx {
			maxIdx = j
		}
	}
	row := make([]float64, maxIdx+1)
	for j, v := range coeffs {
		row[j] = v
	}
	m.prob.Constraints = append(m.prob.Constraints, lp.Constraint{Coeffs: row, Sense: sense, RHS: rhs})
}

// Solve maps all jobs of the problem by solving the Sec 4.2 MILP.
func (s *Solver) Solve(p *sched.Problem) core.Decision {
	s.mSolves.Inc()
	infeasible := func() core.Decision {
		s.mInfeasible.Inc()
		mapping := make([]int, len(p.Jobs))
		for i := range mapping {
			mapping[i] = sched.Unmapped
		}
		return core.Decision{Mapping: mapping, Feasible: false}
	}

	if len(p.Jobs) == 0 {
		return core.Decision{Feasible: true}
	}

	m := &model{p: p}
	n := p.Platform.Len()
	m.xIdx = make([][]int, len(p.Jobs))

	// Variables x_{j,i} with up-front elimination.
	var binaries []int
	for j, job := range p.Jobs {
		m.xIdx[j] = make([]int, n)
		any := false
		for i := 0; i < n; i++ {
			m.xIdx[j][i] = -1
			cpm := job.CPM(i, p.Policy)
			if cpm == task.NotExecutable {
				continue
			}
			// Constraint (2): x_{j,i}·cpm ≤ t_left as elimination.
			if cpm > job.AbsDeadline-math.Max(job.Arrival, p.Time)+sched.Eps {
				continue
			}
			if (job.Fixed || job.Pinned(p.Platform)) && i != job.Resource {
				continue
			}
			if job.Predicted && !p.Platform.Resource(i).Preemptable() {
				continue // see package comment
			}
			idx := m.newVar(job.EPM(i, p.Policy))
			m.xIdx[j][i] = idx
			binaries = append(binaries, idx)
			any = true
		}
		if !any {
			return infeasible()
		}
	}

	// Constraint (1): each job on exactly one resource.
	for j := range p.Jobs {
		coeffs := map[int]float64{}
		for i := 0; i < n; i++ {
			if m.xIdx[j][i] >= 0 {
				coeffs[m.xIdx[j][i]] = 1
			}
		}
		m.addConstraint(coeffs, lp.EQ, 1)
	}

	predIdx := p.PredIndex()

	// Deadline-sorted real-job order per resource; pinned occupants first
	// on non-preemptable resources (they cannot be overtaken).
	realJobs := make([]int, 0, len(p.Jobs))
	for j := range p.Jobs {
		if j != predIdx {
			realJobs = append(realJobs, j)
		}
	}
	orderFor := func(resource int) []int {
		order := append([]int(nil), realJobs...)
		preemptable := p.Platform.Resource(resource).Preemptable()
		sort.SliceStable(order, func(a, b int) bool {
			ja, jb := p.Jobs[order[a]], p.Jobs[order[b]]
			if !preemptable {
				pa := ja.Pinned(p.Platform) && ja.Resource == resource
				pb := jb.Pinned(p.Platform) && jb.Resource == resource
				if pa != pb {
					return pa
				}
			}
			return ja.AbsDeadline < jb.AbsDeadline
		})
		return order
	}

	// Constraint (3)/(6): cumulative EDF demand.
	for i := 0; i < n; i++ {
		order := orderFor(i)
		for pos, j := range order {
			// The constraint is valid (and merely redundant) even when j
			// itself cannot map to i: the last mapped predecessor's
			// constraint dominates it.
			coeffs := map[int]float64{}
			for _, k := range order[:pos+1] {
				if idx := m.xIdx[k][i]; idx >= 0 {
					coeffs[idx] = p.Jobs[k].CPM(i, p.Policy)
				}
			}
			if len(coeffs) == 0 {
				continue
			}
			m.addConstraint(coeffs, lp.LE, p.Jobs[j].TimeLeft(p.Time))
		}
	}

	// Predicted-task constraints.
	if predIdx >= 0 {
		bigM := bigMFor(p)
		pred := p.Jobs[predIdx]
		sp := math.Max(pred.Arrival, p.Time)
		for i := 0; i < n; i++ {
			xp := m.xIdx[predIdx][i]
			if xp < 0 {
				continue
			}
			cpp := pred.CPM(i, p.Policy)
			// (5): s_p + cp_p ≤ D_p when mapped to i.
			if sp+cpp > pred.AbsDeadline+sched.Eps {
				// Unsatisfiable for this resource: eliminate.
				m.addConstraint(map[int]float64{xp: 1}, lp.EQ, 0)
				continue
			}
			// (4): work of earlier-or-equal-deadline (SL1) jobs on i
			// precedes τ_p: t + W_SL1 + cp_p ≤ D_p + M(1−x_p).
			coeffs := map[int]float64{xp: cpp + bigM}
			for _, j := range realJobs {
				if p.Jobs[j].AbsDeadline <= pred.AbsDeadline+sched.Eps {
					if idx := m.xIdx[j][i]; idx >= 0 {
						coeffs[idx] = p.Jobs[j].CPM(i, p.Policy)
					}
				}
			}
			m.addConstraint(coeffs, lp.LE, pred.TimeLeft(p.Time)+bigM)

			// (8)-(14) closed form: every later-deadline (SL2) job j on i
			// is delayed by cp_p iff τ_p arrives before j's undelayed
			// completion C_j0 = t + W_{≤j,i}.
			order := orderFor(i)
			for pos, j := range order {
				if p.Jobs[j].AbsDeadline <= pred.AbsDeadline+sched.Eps {
					continue
				}
				xj := m.xIdx[j][i]
				if xj < 0 {
					continue
				}
				z := m.newVar(0)
				w := m.newVar(0)
				binaries = append(binaries, z, w)
				// Forcing z: C_j0 − s_p ≤ M·z + M(1−x_j).
				cum := map[int]float64{}
				for _, k := range order[:pos+1] {
					if idx := m.xIdx[k][i]; idx >= 0 {
						cum[idx] = p.Jobs[k].CPM(i, p.Policy)
					}
				}
				force := cloneCoeffs(cum)
				force[z] = -bigM
				force[xj] += bigM
				m.addConstraint(force, lp.LE, sp-p.Time+bigM)
				// Linearised product: w ≥ x_p + z − 1.
				m.addConstraint(map[int]float64{w: 1, xp: -1, z: -1}, lp.GE, -1)
				// Deadline with delay: C_j0 + cp_p·w ≤ D_j + M(1−x_j).
				dl := cloneCoeffs(cum)
				dl[w] = cpp
				dl[xj] += bigM
				m.addConstraint(dl, lp.LE, p.Jobs[j].TimeLeft(p.Time)+bigM)
			}
		}
	}

	m.prob.Integer = make([]bool, m.prob.NumVars)
	for _, b := range binaries {
		m.prob.Integer[b] = true
		m.addConstraint(map[int]float64{b: 1}, lp.LE, 1)
	}

	// Objective cutoff: Algorithm 1's solution is an upper bound on the
	// optimum (the MILP dominates the heuristic), which prunes the
	// branch-and-bound tree dramatically without affecting optimality.
	if h := (&core.Heuristic{}).Solve(p); h.Feasible {
		coeffs := map[int]float64{}
		for j := range p.Jobs {
			for i := 0; i < n; i++ {
				if idx := m.xIdx[j][i]; idx >= 0 {
					coeffs[idx] = p.Jobs[j].EPM(i, p.Policy)
				}
			}
		}
		m.addConstraint(coeffs, lp.LE, h.Energy+1e-7)
	}

	s.mVars.Observe(float64(m.prob.NumVars))
	sol, err := milp.Solve(&m.prob, milp.Options{MaxNodes: s.MaxNodes, Metrics: s.metrics})
	if err != nil {
		s.LastStatus = milp.Infeasible
		return infeasible()
	}
	s.LastStatus = sol.Status
	if !sol.HasIncumbent {
		return infeasible()
	}
	mapping := make([]int, len(p.Jobs))
	for j := range p.Jobs {
		mapping[j] = sched.Unmapped
		for i := 0; i < n; i++ {
			if idx := m.xIdx[j][i]; idx >= 0 && sol.X[idx] > 0.5 {
				mapping[j] = i
				break
			}
		}
		if mapping[j] == sched.Unmapped {
			return infeasible()
		}
	}
	return core.Decision{Mapping: mapping, Feasible: true, Energy: p.Energy(mapping)}
}

func cloneCoeffs(c map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(c)+2)
	for k, v := range c {
		out[k] = v
	}
	return out
}
