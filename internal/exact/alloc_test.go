//go:build !race

// Allocation budgets; the race detector adds allocations of its own, so
// these run only without it (make allocs).

package exact

import (
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
)

// TestOptimalSolveAllocBudget: a warm solver's allocations do not grow
// with the free jobs it orders — the branching orders are sorted in
// place — leaving the heuristic incumbent's and the returned decision's
// mappings. An infeasible solve returns no mapping and allocates nothing.
func TestOptimalSolveAllocBudget(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(13)
	problems := make([]*sched.Problem, 32)
	for i := range problems {
		problems[i] = randomSmallProblem(r, plat, set)
	}
	o := &Optimal{}
	for _, p := range problems {
		o.Solve(p)
	}
	infeasible := 0
	for i, p := range problems {
		budget := 2.0
		if !o.Solve(p).Feasible {
			budget = 0
			infeasible++
		}
		if got := testing.AllocsPerRun(10, func() { o.Solve(p) }); got > budget {
			t.Fatalf("problem %d (%d jobs): Solve makes %v allocs, budget %v", i, len(p.Jobs), got, budget)
		}
	}
	if infeasible == 0 {
		t.Fatal("no infeasible problem: the zero budget went unchecked")
	}
}
