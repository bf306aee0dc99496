package exact

import (
	"testing"
	"time"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/task"
)

func TestOptimalBudgetAware(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	h := &core.Heuristic{}
	var o core.BudgetAware = &Optimal{}

	// A one-node budget forces immediate truncation, but the anytime
	// incumbent (the heuristic seed) must survive the cut.
	o.ApplyBudget(core.Budget{Nodes: 1})
	for trial := 0; trial < 30; trial++ {
		p := randomSmallProblem(r, plat, set)
		hd := h.Solve(p)
		od := o.Solve(p)
		if hd.Feasible && (!od.Feasible || od.Energy > hd.Energy+1e-9) {
			t.Fatalf("trial %d: budgeted result worse than seed", trial)
		}
		use := o.BudgetUsed()
		if use.Nodes > 1 {
			t.Fatalf("trial %d: expanded %d nodes under a 1-node budget", trial, use.Nodes)
		}
		if use.Nodes == 1 && !use.Exhausted {
			t.Fatalf("trial %d: budget consumed but not reported exhausted", trial)
		}
	}

	// Clearing the budget restores the default limit: a small problem
	// should then complete without truncation.
	o.ApplyBudget(core.Budget{})
	p := randomSmallProblem(r, plat, set)
	o.Solve(p)
	if o.BudgetUsed().Exhausted {
		t.Fatal("unbudgeted small solve reported exhaustion")
	}
}

func TestOptimalWallBudget(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(47)
	h := &core.Heuristic{}
	o := &Optimal{}
	// A generous wall budget on tiny problems must not perturb results.
	o.ApplyBudget(core.Budget{Wall: time.Minute})
	for trial := 0; trial < 10; trial++ {
		p := randomSmallProblem(r, plat, set)
		hd := h.Solve(p)
		od := o.Solve(p)
		if hd.Feasible && (!od.Feasible || od.Energy > hd.Energy+1e-9) {
			t.Fatalf("trial %d: wall-budgeted result worse than seed", trial)
		}
	}
}

// TestNodeLimitAnytimeWide: when the node limit truncates the search on
// wide problems, the result must still be feasible and no worse than the
// heuristic seed (anytime soundness), and the node count must never pass
// the limit.
func TestNodeLimitAnytimeWide(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(41)
	h := &core.Heuristic{}
	const limit = 200
	o := &Optimal{NodeLimit: limit}
	truncated := 0
	for trial := 0; trial < 60; trial++ {
		p := randomWideProblem(r, plat, set)
		hd := h.Solve(p)
		od := o.Solve(p)
		if hd.Feasible {
			if !od.Feasible {
				t.Fatalf("trial %d: seed feasible but truncated exact infeasible", trial)
			}
			if od.Energy > hd.Energy+1e-9 {
				t.Fatalf("trial %d: anytime result %v worse than seed %v", trial, od.Energy, hd.Energy)
			}
			if !p.FeasibleMapping(od.Mapping) {
				t.Fatalf("trial %d: anytime mapping infeasible", trial)
			}
		}
		if o.LastStats.Nodes > limit {
			t.Fatalf("trial %d: %d nodes expanded, limit %d", trial, o.LastStats.Nodes, limit)
		}
		if o.LastStats.Truncated {
			truncated++
		}
	}
	if truncated == 0 {
		t.Fatal("node limit never truncated a solve: the test exercised nothing")
	}
}

// TestBudgetedFallthrough drives the exact solver inside a BudgetedSolver
// chain with a node budget small enough to exhaust mid-search: decisions
// must stay sound (feasible means schedulable), exhaustion must be
// reported, and the chain must fall through to its cheaper stage rather
// than wedge.
func TestBudgetedFallthrough(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(53)
	o := &Optimal{}
	chain := &core.BudgetedSolver{
		Stages: []core.Stage{
			{Name: "exact", Solver: o},
			{Name: "heuristic", Solver: &core.Heuristic{}},
		},
		Budget: core.Budget{Nodes: 64},
	}
	exhausted := 0
	for trial := 0; trial < 80; trial++ {
		p := randomWideProblem(r, plat, set)
		d := chain.Solve(p)
		if o.BudgetUsed().Exhausted {
			exhausted++
		}
		if d.Feasible && !p.FeasibleMapping(d.Mapping) {
			t.Fatalf("trial %d: chain returned an infeasible mapping as feasible", trial)
		}
	}
	if exhausted == 0 {
		t.Fatal("budget never exhausted: the test exercised nothing")
	}
}
