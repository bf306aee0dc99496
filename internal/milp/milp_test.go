package milp

import (
	"math"
	"strings"
	"testing"

	"predrm/internal/lp"
	"predrm/internal/rng"
)

func TestKnapsack(t *testing.T) {
	// max 8a + 11b + 6c + 4d s.t. 5a + 7b + 4c + 3d ≤ 14, binaries.
	// Optimum: a=b=c=1 (weight 16 > 14? 5+7+4=16 no!) — recompute:
	// feasible best is a,b,d = 8+11+4=23 weight 15>14 no; b,c,d = 21 w=14 ✓.
	p := &Problem{
		Problem: lp.Problem{
			NumVars:   4,
			Objective: []float64{-8, -11, -6, -4},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{5, 7, 4, 3}, Sense: lp.LE, RHS: 14},
			},
		},
	}
	p.AddBinaryBounds(0, 1, 2, 3)
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal {
		t.Fatalf("status %v", s.Status)
	}
	if math.Abs(s.Objective-(-21)) > 1e-6 {
		t.Fatalf("objective %v, want -21", s.Objective)
	}
	want := []float64{0, 1, 1, 1}
	for j, v := range want {
		if math.Abs(s.X[j]-v) > 1e-6 {
			t.Fatalf("X = %v, want %v", s.X, want)
		}
	}
}

func TestIntegerRounding(t *testing.T) {
	// min x s.t. 2x ≥ 5, x integer → x = 3.
	p := &Problem{
		Problem: lp.Problem{
			NumVars:   1,
			Objective: []float64{1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{2}, Sense: lp.GE, RHS: 5},
			},
		},
		Integer: []bool{true},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.X[0]-3) > 1e-6 {
		t.Fatalf("got %v X=%v", s.Status, s.X)
	}
}

func TestMixedIntegerContinuous(t *testing.T) {
	// min y − x, x binary, y continuous: y ≥ 1.5x, y ≤ 2.
	// x=1: min y = 1.5 → obj 0.5. x=0: obj y=0. Optimum 0 at x=0... make
	// x rewarding: min y − 2x → x=1, y=1.5, obj −0.5.
	p := &Problem{
		Problem: lp.Problem{
			NumVars:   2,
			Objective: []float64{-2, 1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{-1.5, 1}, Sense: lp.GE, RHS: 0},
				{Coeffs: []float64{0, 1}, Sense: lp.LE, RHS: 2},
			},
		},
	}
	p.AddBinaryBounds(0)
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Optimal || math.Abs(s.Objective-(-0.5)) > 1e-6 {
		t.Fatalf("got %v obj=%v", s.Status, s.Objective)
	}
	if math.Abs(s.X[0]-1) > 1e-6 || math.Abs(s.X[1]-1.5) > 1e-6 {
		t.Fatalf("X = %v", s.X)
	}
}

func TestInfeasibleMILP(t *testing.T) {
	// Binary x with 0.4 ≤ x ≤ 0.6: LP feasible, MILP infeasible.
	p := &Problem{
		Problem: lp.Problem{
			NumVars:   1,
			Objective: []float64{1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1}, Sense: lp.GE, RHS: 0.4},
				{Coeffs: []float64{1}, Sense: lp.LE, RHS: 0.6},
			},
		},
		Integer: []bool{true},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", s.Status)
	}
}

func TestUnboundedRoot(t *testing.T) {
	p := &Problem{
		Problem: lp.Problem{NumVars: 1, Objective: []float64{-1}},
		Integer: []bool{true},
	}
	s, err := Solve(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Unbounded {
		t.Fatalf("status %v, want unbounded", s.Status)
	}
}

func TestTruncation(t *testing.T) {
	p := &Problem{
		Problem: lp.Problem{
			NumVars:   3,
			Objective: []float64{-1, -1, -1},
			Constraints: []lp.Constraint{
				{Coeffs: []float64{1.3, 1.7, 2.1}, Sense: lp.LE, RHS: 2.5},
			},
		},
	}
	p.AddBinaryBounds(0, 1, 2)
	s, err := Solve(p, Options{MaxNodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.Status != Truncated {
		t.Fatalf("status %v, want truncated", s.Status)
	}
}

func TestValidateErrors(t *testing.T) {
	p := &Problem{Problem: lp.Problem{NumVars: 0}}
	if _, err := Solve(p, Options{}); err == nil {
		t.Fatal("accepted invalid LP")
	}
	p2 := &Problem{Problem: lp.Problem{NumVars: 1}, Integer: []bool{true, true}}
	if _, err := Solve(p2, Options{}); err == nil {
		t.Fatal("accepted Integer longer than NumVars")
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", Truncated: "truncated",
	} {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
	if !strings.HasPrefix(Status(9).String(), "Status(") {
		t.Error("unknown status string")
	}
}

// bruteForceBinary enumerates all binary assignments for problems whose
// integer variables are all binary, fixing them and checking the remaining
// pure-LP feasibility.
func bruteForceBinary(p *Problem) (float64, bool) {
	var bins []int
	for j, isInt := range p.Integer {
		if isInt {
			bins = append(bins, j)
		}
	}
	best := math.Inf(1)
	found := false
	for mask := 0; mask < 1<<len(bins); mask++ {
		sub := lp.Problem{
			NumVars:     p.NumVars,
			Objective:   p.Objective,
			Constraints: append([]lp.Constraint(nil), p.Constraints...),
		}
		for bi, j := range bins {
			v := float64((mask >> bi) & 1)
			coeffs := make([]float64, j+1)
			coeffs[j] = 1
			sub.Constraints = append(sub.Constraints, lp.Constraint{Coeffs: coeffs, Sense: lp.EQ, RHS: v})
		}
		res, err := lp.Solve(&sub)
		if err != nil || res.Status != lp.Optimal {
			continue
		}
		if res.Objective < best {
			best = res.Objective
			found = true
		}
	}
	return best, found
}

func TestRandomisedAgainstEnumeration(t *testing.T) {
	r := rng.New(77)
	checked := 0
	for trial := 0; trial < 120; trial++ {
		nb := 2 + r.Intn(3) // binaries
		nc := r.Intn(2)     // continuous
		n := nb + nc
		p := &Problem{Problem: lp.Problem{NumVars: n, Objective: make([]float64, n)}}
		for j := 0; j < n; j++ {
			p.Objective[j] = r.Uniform(-5, 5)
		}
		for i := 0; i < 1+r.Intn(3); i++ {
			c := lp.Constraint{Coeffs: make([]float64, n), Sense: lp.LE, RHS: r.Uniform(1, 6)}
			for j := range c.Coeffs {
				c.Coeffs[j] = r.Uniform(0, 3)
			}
			p.Constraints = append(p.Constraints, c)
		}
		// Bound continuous vars so nothing is unbounded.
		for j := nb; j < n; j++ {
			coeffs := make([]float64, j+1)
			coeffs[j] = 1
			p.Constraints = append(p.Constraints, lp.Constraint{Coeffs: coeffs, Sense: lp.LE, RHS: 4})
		}
		binIdx := make([]int, nb)
		for j := 0; j < nb; j++ {
			binIdx[j] = j
		}
		p.AddBinaryBounds(binIdx...)

		s, err := Solve(p, Options{})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want, feasible := bruteForceBinary(p)
		if (s.Status == Optimal) != feasible {
			t.Fatalf("trial %d: milp %v, enumeration feasible=%v", trial, s.Status, feasible)
		}
		if s.Status != Optimal {
			continue
		}
		checked++
		if math.Abs(s.Objective-want) > 1e-5 {
			t.Fatalf("trial %d: milp obj %v, enumeration %v", trial, s.Objective, want)
		}
	}
	if checked < 40 {
		t.Fatalf("only %d optimal instances checked", checked)
	}
}

// AddBinaryBounds appends x_j ≤ 1 rows for every integer variable in js
// and marks them integral, making them binary (variables are ≥ 0 already).
func (p *Problem) AddBinaryBounds(js ...int) {
	if len(p.Integer) < p.NumVars {
		grown := make([]bool, p.NumVars)
		copy(grown, p.Integer)
		p.Integer = grown
	}
	for _, j := range js {
		p.Integer[j] = true
		coeffs := make([]float64, j+1)
		coeffs[j] = 1
		p.Constraints = append(p.Constraints, lp.Constraint{Coeffs: coeffs, Sense: lp.LE, RHS: 1})
	}
}
