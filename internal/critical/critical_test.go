package critical

import (
	"math"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/sched"
)

func validSet() *Set {
	return &Set{Tasks: []*Task{
		{ID: 0, Name: "ctrl", Resource: 0, Period: 10, WCET: 2, Energy: 1, Deadline: 5},
		{ID: 1, Name: "log", Resource: 1, Period: 20, Offset: 3, WCET: 4, Energy: 2, Deadline: 20},
	}}
}

func TestValidate(t *testing.T) {
	plat := platform.Default()
	if err := validSet().Validate(plat); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Set)
	}{
		{"empty", func(s *Set) { s.Tasks = nil }},
		{"bad-id", func(s *Set) { s.Tasks[1].ID = 5 }},
		{"unknown-resource", func(s *Set) { s.Tasks[0].Resource = 99 }},
		{"gpu", func(s *Set) { s.Tasks[0].Resource = 5 }},
		{"zero-period", func(s *Set) { s.Tasks[0].Period = 0 }},
		{"deadline-over-period", func(s *Set) { s.Tasks[0].Deadline = 11 }},
		{"wcet-over-deadline", func(s *Set) { s.Tasks[0].WCET = 6 }},
		{"negative-offset", func(s *Set) { s.Tasks[0].Offset = -1 }},
	}
	for _, c := range cases {
		s := validSet()
		c.mutate(s)
		if err := s.Validate(plat); err == nil {
			t.Errorf("%s: accepted invalid set", c.name)
		}
	}
	// Density over 1 on one resource.
	over := &Set{Tasks: []*Task{
		{ID: 0, Resource: 0, Period: 10, WCET: 6, Energy: 1, Deadline: 10},
		{ID: 1, Resource: 0, Period: 10, WCET: 5, Energy: 1, Deadline: 10},
	}}
	if err := over.Validate(plat); err == nil {
		t.Error("accepted over-committed resource")
	}
}

func TestReleaseArithmetic(t *testing.T) {
	task := &Task{ID: 0, Resource: 0, Period: 10, Offset: 3, WCET: 2, Energy: 1, Deadline: 5}
	if task.ReleaseAt(0) != 3 || task.ReleaseAt(2) != 23 {
		t.Fatal("ReleaseAt wrong")
	}
	cases := []struct {
		at   float64
		want int
	}{
		{0, 0}, {3, 0}, {3.1, 1}, {13, 1}, {13.5, 2}, {23.5, 3},
	}
	for _, c := range cases {
		if got := task.NextReleaseIndex(c.at); got != c.want {
			t.Errorf("NextReleaseIndex(%v) = %d, want %d", c.at, got, c.want)
		}
	}
	if d := task.Density(); math.Abs(d-0.4) > 1e-12 {
		t.Fatalf("Density = %v", d)
	}
}

func TestUpcomingJobs(t *testing.T) {
	plat := platform.Default()
	s := validSet()
	jobs := s.UpcomingJobs(plat, 0, 25)
	// Task 0 releases at 0 (excluded: not strictly after from=0? release 0
	// is at t=0 which equals from), 10, 20; task 1 at 3, 23.
	var t0, t1 int
	for _, j := range jobs {
		if !j.Fixed {
			t.Fatalf("upcoming job not fixed: %v", j)
		}
		if j.Resource == 0 {
			t0++
		} else {
			t1++
		}
		if j.Arrival <= 0 || j.Arrival > 25 {
			t.Fatalf("release outside window: %v", j.Arrival)
		}
	}
	if t0 != 2 || t1 != 2 {
		t.Fatalf("got %d/%d releases, want 2/2 (jobs %v)", t0, t1, jobs)
	}
}

func TestNextReleaseAndReleasesAt(t *testing.T) {
	s := validSet()
	rel, ok := s.NextRelease(0)
	if !ok || rel != 3 {
		t.Fatalf("NextRelease(0) = %v %v, want 3", rel, ok)
	}
	rel, _ = s.NextRelease(9.5)
	if rel != 10 {
		t.Fatalf("NextRelease(9.5) = %v, want 10", rel)
	}
	if _, ok := (*Set)(nil).NextRelease(0); ok {
		t.Fatal("nil set has releases")
	}
	ids := s.ReleasesAt(10)
	if len(ids) != 1 || ids[0] != 0 {
		t.Fatalf("ReleasesAt(10) = %v", ids)
	}
}

func TestReleaseJob(t *testing.T) {
	plat := platform.Default()
	s := validSet()
	j := s.Release(plat, 0, 3)
	if j.Arrival != 30 || j.AbsDeadline != 35 {
		t.Fatalf("release timing wrong: %v", j)
	}
	if !j.Fixed || j.Resource != 0 {
		t.Fatalf("release not fixed to static resource: %v", j)
	}
	if j.Type.WCET[0] != 2 || j.Type.ExecutableOn(1) {
		t.Fatal("release type wrong")
	}
	if JobID(0, 3) != j.ID || j.ID >= 0 {
		t.Fatalf("job ID %d", j.ID)
	}
	// Distinct releases and tasks give distinct IDs.
	seen := map[int]bool{}
	for tid := 0; tid < 2; tid++ {
		for k := 0; k < 5; k++ {
			id := JobID(tid, k)
			if seen[id] {
				t.Fatalf("JobID collision at task %d release %d", tid, k)
			}
			seen[id] = true
		}
	}
}

func TestUtilization(t *testing.T) {
	plat := platform.Default()
	u := validSet().Utilization(plat)
	if math.Abs(u[0]-0.4) > 1e-12 || math.Abs(u[1]-0.2) > 1e-12 {
		t.Fatalf("utilization = %v", u)
	}
}

func TestSchedIntegrationFixedFutureJob(t *testing.T) {
	// A future critical release participates in feasibility as a fixed
	// future entry.
	plat := platform.Default()
	s := validSet()
	jobs := s.UpcomingJobs(plat, 5, 15) // task 0 release at 10
	if len(jobs) != 1 {
		t.Fatalf("want 1 release, got %d", len(jobs))
	}
	p := &sched.Problem{Platform: plat, Time: 5, Jobs: jobs}
	if err := p.Validate(); err != nil {
		t.Fatalf("future fixed job rejected by Validate: %v", err)
	}
	if !p.FeasibleMapping([]int{0}) {
		t.Fatal("lone critical release infeasible")
	}
	if p.FeasibleMapping([]int{1}) {
		t.Fatal("fixed job allowed on a different resource")
	}
}

// NextRelease returns the earliest release time strictly after at, and
// false if the set is empty.
func (s *Set) NextRelease(at float64) (float64, bool) {
	if s == nil || len(s.Tasks) == 0 {
		return 0, false
	}
	best := math.Inf(1)
	for _, t := range s.Tasks {
		k := t.NextReleaseIndex(at + sched.Eps)
		rel := t.ReleaseAt(k)
		if rel <= at+sched.Eps {
			rel = t.ReleaseAt(k + 1)
		}
		if rel < best {
			best = rel
		}
	}
	return best, true
}

// ReleasesAt returns the task indices releasing exactly at time at.
func (s *Set) ReleasesAt(at float64) []int {
	var ids []int
	for tid, t := range s.Tasks {
		k := t.NextReleaseIndex(at)
		if math.Abs(t.ReleaseAt(k)-at) <= sched.Eps {
			ids = append(ids, tid)
		}
	}
	return ids
}
