package core

// referenceSolve is the seed implementation of Algorithm 1, kept verbatim
// as the behavioural oracle for the optimized Heuristic: it recomputes
// feasible sets and desirabilities from scratch on every max-regret
// iteration and allocates fresh trial buffers per schedulability probe.
// The differential test below asserts the arena-based solver produces
// bit-identical decisions over large seeded problem populations.

import (
	"math"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
)

func referenceSolve(p *sched.Problem, greedy bool) Decision {
	n := p.Platform.Len()
	jobs := p.Jobs
	mapping := make([]int, len(jobs))
	for i := range mapping {
		mapping[i] = sched.Unmapped
	}

	window := p.Window()
	capacity := make([]float64, n)
	for i := range capacity {
		capacity[i] = window
	}
	entries := make([][]sched.Entry, n)

	assign := func(jobIdx, r int) {
		mapping[jobIdx] = r
		cpm := jobs[jobIdx].CPM(r, p.Policy)
		capacity[r] -= cpm
		j := jobs[jobIdx]
		entries[r] = append(entries[r], sched.Entry{
			ReadyAt:     math.Max(j.Arrival, p.Time),
			Deadline:    j.AbsDeadline,
			Rem:         cpm,
			PinnedFirst: j.Pinned(p.Platform) && j.Resource == r,
		})
	}

	unassigned := make([]int, 0, len(jobs))
	for idx, j := range jobs {
		if j.Fixed || j.Pinned(p.Platform) {
			assign(idx, j.Resource)
			continue
		}
		unassigned = append(unassigned, idx)
	}

	desirability := func(jobIdx, r int) float64 {
		j := jobs[jobIdx]
		e := j.EPM(r, p.Policy)
		if e == task.NotExecutable {
			return math.Inf(1)
		}
		if j.CPM(r, p.Policy) > j.TimeLeft(p.Time)+sched.Eps {
			e += bigM
		}
		return e
	}

	isSchedulable := func(jobIdx, r int) bool {
		j := jobs[jobIdx]
		cand := sched.Entry{
			ReadyAt:  math.Max(j.Arrival, p.Time),
			Deadline: j.AbsDeadline,
			Rem:      j.CPM(r, p.Policy),
		}
		trial := append(append(make([]sched.Entry, 0, len(entries[r])+1), entries[r]...), cand)
		return sched.ResourceFeasible(p.Platform.Resource(r).Preemptable(), p.Time, trial, nil)
	}

	feasibleSet := func(jobIdx int) []int {
		var fs []int
		for r := 0; r < n; r++ {
			cpm := jobs[jobIdx].CPM(r, p.Policy)
			if cpm != task.NotExecutable && cpm <= capacity[r]+sched.Eps {
				fs = append(fs, r)
			}
		}
		return fs
	}

	for len(unassigned) > 0 {
		pick := -1
		var pickSet []int
		if greedy {
			pick = 0
			pickSet = feasibleSet(unassigned[0])
			if len(pickSet) == 0 {
				return Decision{Mapping: mapping, Feasible: false}
			}
		} else {
			dStar := math.Inf(-1)
			for u, jobIdx := range unassigned {
				fs := feasibleSet(jobIdx)
				if len(fs) == 0 {
					return Decision{Mapping: mapping, Feasible: false}
				}
				best, second := math.Inf(1), math.Inf(1)
				for _, r := range fs {
					f := desirability(jobIdx, r)
					if f < best {
						best, second = f, best
					} else if f < second {
						second = f
					}
				}
				d := second - best
				if d > dStar {
					dStar = d
					pick = u
					pickSet = fs
				}
			}
		}

		jobIdx := unassigned[pick]
		unassigned = append(unassigned[:pick], unassigned[pick+1:]...)

		placed := false
		for len(pickSet) > 0 {
			bi, bf := -1, math.Inf(1)
			for k, r := range pickSet {
				if f := desirability(jobIdx, r); f < bf {
					bf, bi = f, k
				}
			}
			r := pickSet[bi]
			if isSchedulable(jobIdx, r) {
				assign(jobIdx, r)
				placed = true
				break
			}
			pickSet = append(pickSet[:bi], pickSet[bi+1:]...)
		}
		if !placed {
			return Decision{Mapping: mapping, Feasible: false}
		}
	}

	return Decision{Mapping: mapping, Feasible: true, Energy: p.Energy(mapping)}
}

// diffProblems yields the differential-test population: the default 5-CPU
// + 1-GPU platform and the motivational 2-CPU + 1-GPU one, with jobs
// mixing fresh, mapped, started (pinned), fixed, and predicted states.
func diffProblems(t *testing.T, trials int) []*sched.Problem {
	t.Helper()
	platD := platform.Default()
	setD, err := task.Generate(platD, task.DefaultGenConfig(), rng.New(41))
	if err != nil {
		t.Fatal(err)
	}
	platM := platform.Motivational()
	setM, err := task.Generate(platM, func() task.GenConfig {
		c := task.DefaultGenConfig()
		c.NumTypes = 40
		return c
	}(), rng.New(43))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(97)
	ps := make([]*sched.Problem, 0, trials)
	for i := 0; i < trials; i++ {
		if i%2 == 0 {
			ps = append(ps, randomProblem(r, platD, setD))
		} else {
			ps = append(ps, randomProblem(r, platM, setM))
		}
	}
	return ps
}

// solveWithPlan runs h.Solve and, when the solve fails, fills the
// decision's mapping with the partial plan the arena held when placement
// stopped. Solve returns no mapping for an infeasible decision, but the
// partial plan is how the differential tests pin the failing solve's
// placement order against referenceSolve.
func solveWithPlan(h *Heuristic, p *sched.Problem) Decision {
	d := h.Solve(p)
	if !d.Feasible {
		d.Mapping = append([]int(nil), h.mapping[:len(p.Jobs)]...)
	}
	return d
}

// TestHeuristicMatchesReference is the refactor's equivalence proof: the
// optimized solver must produce the identical Decision — mapping,
// feasibility, and energy — as the seed implementation on every problem of
// a large seeded population, in both max-regret and greedy modes, reusing
// one solver instance throughout so stale arena state would be caught.
func TestHeuristicMatchesReference(t *testing.T) {
	problems := diffProblems(t, 1200)
	solvers := map[string]*Heuristic{
		"regret": {},
		"greedy": {Greedy: true},
	}
	for name, h := range solvers {
		feasible := 0
		for i, p := range problems {
			got := solveWithPlan(h, p)
			want := referenceSolve(p, h.Greedy)
			if got.Feasible != want.Feasible {
				t.Fatalf("%s trial %d: feasible=%v, reference=%v", name, i, got.Feasible, want.Feasible)
			}
			if len(got.Mapping) != len(want.Mapping) {
				t.Fatalf("%s trial %d: mapping length %d, reference %d", name, i, len(got.Mapping), len(want.Mapping))
			}
			for k := range got.Mapping {
				if got.Mapping[k] != want.Mapping[k] {
					t.Fatalf("%s trial %d: mapping %v, reference %v", name, i, got.Mapping, want.Mapping)
				}
			}
			if got.Energy != want.Energy {
				t.Fatalf("%s trial %d: energy %v, reference %v", name, i, got.Energy, want.Energy)
			}
			if want.Feasible {
				feasible++
			}
		}
		if feasible == 0 {
			t.Fatalf("%s: no feasible instances; generator too harsh for a meaningful test", name)
		}
	}
}

// TestHeuristicEntryListInvariant is the sorted-insertion property test:
// after every solve, each per-resource entry list must satisfy the
// FeasibleSorted precondition (pinned prefix group, non-decreasing
// deadlines) with a correct future-release count — the invariant the
// allocation-free fast path depends on.
func TestHeuristicEntryListInvariant(t *testing.T) {
	problems := diffProblems(t, 400)
	h := &Heuristic{}
	for i, p := range problems {
		h.Solve(p)
		for r := 0; r < p.Platform.Len(); r++ {
			if err := h.lists[r].Invariant(p.Time); err != nil {
				t.Fatalf("trial %d resource %d: %v", i, r, err)
			}
		}
	}
}
