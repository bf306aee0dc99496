//go:build !race

// Allocation budgets of the heuristic's scratch arena. The race detector
// adds allocations of its own, so these run only without it (make allocs).

package core

import (
	"math/bits"
	"runtime"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
)

// TestArenaGrowthAllocBudget: a 64c8g solve sequence over problem sizes
// growing one job at a time reallocates the per-job arena O(log m) times
// — each growth at least doubles it — and stays within a per-solve
// allocation budget covering the returned mapping, the type orders and
// the entry lists' own geometric growth. Growing the arena to the exact
// size instead reallocates it at every solve of the sequence.
func TestArenaGrowthAllocBudget(t *testing.T) {
	plat := platform.New(64, 8)
	r := rng.New(17)
	set := coarseSet(plat, r, 12)
	const maxJobs = 256
	problems := make([]*sched.Problem, 0, maxJobs)
	for m := 1; m <= maxJobs; m++ {
		now := float64(m)
		p := &sched.Problem{Platform: plat, Time: now}
		for i := 0; i < m; i++ {
			p.Jobs = append(p.Jobs, sched.NewJob(i, set.Type(r.Intn(set.Len())), now, r.Uniform(40, 400)))
		}
		problems = append(problems, p)
	}
	h := &Heuristic{}
	growths, last := 0, -1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, p := range problems {
		h.Solve(p)
		if c := cap(h.terms); c != last {
			growths, last = growths+1, c
		}
	}
	runtime.ReadMemStats(&after)
	perSolve := float64(after.Mallocs-before.Mallocs) / maxJobs
	t.Logf("%d arena growths, %.2f allocs per solve over %d solves", growths, perSolve, maxJobs)
	if limit := bits.Len(maxJobs); growths > limit {
		t.Fatalf("arena grew %d times over sizes 1..%d, budget %d", growths, maxJobs, limit)
	}
	const budget = 2.5
	if perSolve > budget {
		t.Fatalf("%.2f allocs per solve over the growing sequence, budget %v", perSolve, budget)
	}
}
