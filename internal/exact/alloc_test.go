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
// mappings.
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
	for i, p := range problems {
		if got := testing.AllocsPerRun(10, func() { o.Solve(p) }); got > 2 {
			t.Fatalf("problem %d (%d jobs): Solve makes %v allocs, budget 2", i, len(p.Jobs), got)
		}
	}
}
