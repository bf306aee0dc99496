//go:build !race

// Allocation budgets; the race detector adds allocations of its own, so
// these run only without it (make allocs).

package sched

import (
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/task"
)

// TestScheduleAllocBudget: with a warm scratch, Schedule allocates
// nothing.
func TestScheduleAllocBudget(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	p, mapping := randomProblem(rng.New(3), plat, set, 12, true)
	var s ScheduleScratch
	if got := testing.AllocsPerRun(100, func() { p.Schedule(mapping, &s) }); got != 0 {
		t.Fatalf("Schedule with a warm scratch: %v allocs, want 0", got)
	}
}
