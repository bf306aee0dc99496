// Package milp solves mixed-integer linear programs by LP-based branch and
// bound over internal/lp. It supports minimization with a subset of
// variables restricted to integers (binaries are integers with an explicit
// x ≤ 1 bound constraint added by the caller).
package milp

import (
	"errors"
	"fmt"
	"math"

	"predrm/internal/lp"
	"predrm/internal/telemetry"
)

// Problem is a MILP: an LP plus integrality marks.
type Problem struct {
	lp.Problem
	// Integer[j] restricts variable j to integral values. May be shorter
	// than NumVars (missing entries are continuous).
	Integer []bool
}

// Options controls the search.
type Options struct {
	// MaxNodes bounds the number of branch-and-bound nodes (0 = default).
	MaxNodes int
	// Metrics, when non-nil, records per-solve instruments: counters
	// milp.solves, milp.nodes (cumulative branch-and-bound nodes), and
	// milp.truncated.
	Metrics *telemetry.Registry
}

// DefaultMaxNodes bounds the search tree; the paper-formulation instances
// explored in this repository stay well under it.
const DefaultMaxNodes = 200000

// intTol is the integrality tolerance: a relaxed value within it of an
// integer counts as integral.
const intTol = 1e-6

// Status classifies a MILP solve.
type Status int

const (
	// Optimal: proven optimal integral solution.
	Optimal Status = iota
	// Infeasible: no integral solution exists.
	Infeasible
	// Unbounded: the LP relaxation is unbounded.
	Unbounded
	// Truncated: node budget exhausted; Best holds the incumbent if any.
	Truncated
)

// String names the status.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case Truncated:
		return "truncated"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of a MILP solve.
type Solution struct {
	Status    Status
	X         []float64
	Objective float64
	// Nodes is the number of branch-and-bound nodes solved.
	Nodes int
	// HasIncumbent reports whether X/Objective are meaningful (always for
	// Optimal; possibly for Truncated).
	HasIncumbent bool
}

type bound struct {
	variable int
	leq      bool // true: x ≤ value, false: x ≥ value
	value    float64
}

// Solve minimizes the MILP by depth-first branch and bound, branching on
// the most fractional integer variable.
func Solve(p *Problem, opts Options) (Solution, error) {
	sol, err := solve(p, opts)
	if opts.Metrics != nil && err == nil {
		opts.Metrics.Counter("milp.solves").Inc()
		opts.Metrics.Counter("milp.nodes").Add(int64(sol.Nodes))
		if sol.Status == Truncated {
			opts.Metrics.Counter("milp.truncated").Inc()
		}
	}
	return sol, err
}

func solve(p *Problem, opts Options) (Solution, error) {
	if err := p.Validate(); err != nil {
		return Solution{}, err
	}
	if len(p.Integer) > p.NumVars {
		return Solution{}, errors.New("milp: Integer longer than NumVars")
	}
	maxNodes := opts.MaxNodes
	if maxNodes <= 0 {
		maxNodes = DefaultMaxNodes
	}

	sol := Solution{Status: Infeasible, Objective: math.Inf(1)}
	var stack [][]bound
	stack = append(stack, nil)

	for len(stack) > 0 {
		if sol.Nodes >= maxNodes {
			sol.Status = Truncated
			return sol, nil
		}
		sol.Nodes++
		bounds := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		sub := lp.Problem{
			NumVars:     p.NumVars,
			Objective:   p.Objective,
			Constraints: append(append([]lp.Constraint(nil), p.Constraints...), boundsToConstraints(bounds)...),
		}
		res, err := lp.Solve(&sub)
		if err != nil {
			return Solution{}, err
		}
		switch res.Status {
		case lp.Infeasible:
			continue
		case lp.Unbounded:
			// An unbounded relaxation at the root means the MILP is
			// unbounded or infeasible; report unbounded (callers here
			// always have bounded formulations).
			if len(bounds) == 0 {
				sol.Status = Unbounded
				return sol, nil
			}
			continue
		}
		if sol.HasIncumbent && res.Objective >= sol.Objective-1e-9 {
			continue // bound
		}
		// Find the most fractional integer variable.
		branch := -1
		worst := intTol
		for j := range p.Integer {
			if !p.Integer[j] {
				continue
			}
			f := math.Abs(res.X[j] - math.Round(res.X[j]))
			if f > worst {
				worst = f
				branch = j
			}
		}
		if branch == -1 {
			// Integral: new incumbent.
			x := append([]float64(nil), res.X...)
			for j := range p.Integer {
				if p.Integer[j] {
					x[j] = math.Round(x[j])
				}
			}
			sol.X = x
			sol.Objective = res.Objective
			sol.HasIncumbent = true
			sol.Status = Optimal
			continue
		}
		v := res.X[branch]
		down := append(append([]bound(nil), bounds...), bound{branch, true, math.Floor(v)})
		up := append(append([]bound(nil), bounds...), bound{branch, false, math.Ceil(v)})
		// Depth-first; push the child closer to the relaxation first so it
		// is explored... last. Push the more promising (closer) child last
		// so it pops first.
		if v-math.Floor(v) < 0.5 {
			stack = append(stack, up, down)
		} else {
			stack = append(stack, down, up)
		}
	}
	if sol.HasIncumbent {
		sol.Status = Optimal
	}
	return sol, nil
}

func boundsToConstraints(bs []bound) []lp.Constraint {
	out := make([]lp.Constraint, 0, len(bs))
	for _, b := range bs {
		coeffs := make([]float64, b.variable+1)
		coeffs[b.variable] = 1
		sense := lp.LE
		if !b.leq {
			sense = lp.GE
		}
		out = append(out, lp.Constraint{Coeffs: coeffs, Sense: sense, RHS: b.value})
	}
	return out
}
