package exact

import (
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
)

// pricedProblem draws a small problem on the motivational platform (CPUs
// 0 and 1, the non-preemptable GPU 2) with the GPU contended: usually a
// pinned occupant mid-execution there, and a predicted job released in
// the future, so the demand bound sees pinned load and a future release.
func pricedProblem(r *rng.Rand, plat *platform.Platform, set *task.Set) *sched.Problem {
	now := r.Uniform(0, 50)
	n := 3 + r.Intn(3)
	jobs := make([]*sched.Job, 0, n+1)
	for i := 0; i < n; i++ {
		j := sched.NewJob(i, set.Type(r.Intn(set.Len())), now-r.Uniform(0, 5), r.Uniform(40, 80))
		jobs = append(jobs, j)
	}
	if r.Float64() < 0.7 {
		j := jobs[0]
		j.Resource = 2
		j.Started = true
		j.ExecRes = 2
		j.Frac = r.Uniform(0.2, 1)
	}
	jp := sched.NewJob(n, set.Type(r.Intn(set.Len())), now+r.Uniform(0.5, 6), r.Uniform(40, 80))
	jp.Predicted = true
	jobs = append(jobs, jp)
	return &sched.Problem{Platform: plat, Time: now, Jobs: jobs}
}

// tightProblem is a two-job instance whose optimum fills the GPU to within
// the schedule tolerance: job 0 needs the GPU for Eps/2 longer than its
// deadline allows (the EDF check accepts that), and job 1, a thousand
// times cheaper on the GPU than on a CPU, must go to a CPU. Past a GPU
// multiplier of ~1000 J per time unit, a demand bound without the Eps
// slack would overshoot the optimum by lambda·Eps/2, past the safety
// margin.
func tightProblem() *sched.Problem {
	const d = 10.0
	nx := task.NotExecutable
	big := &task.Type{ID: 0, WCET: []float64{nx, nx, d + sched.Eps/2}, Energy: []float64{nx, nx, 5}}
	cheap := &task.Type{ID: 1, WCET: []float64{1, 1, 1}, Energy: []float64{1000, 1000, 1}}
	return &sched.Problem{
		Platform: platform.Motivational(),
		Jobs:     []*sched.Job{sched.NewJob(0, big, 0, d), sched.NewJob(1, cheap, 0, d)},
	}
}

// rootBound returns the priced bound at the root of o's last solve.
func rootBound(o *Optimal) float64 { return o.pathLag[0] + o.sufLag[0] - o.lagK }

// randomRoot installs random multipliers into the pricing state of o's
// last solve and returns the root bound the search would use with them.
// The demand-bound relaxation is a lower bound for every lambda >= 0, not
// only for the ones the subgradient steps reach, so this tests the
// constraints and the margin apart from the step rule. Multipliers range
// up to three times the largest energy per unit of work of any candidate.
func randomRoot(r *rng.Rand, o *Optimal) float64 {
	scale := 0.0
	for d := range o.order {
		for k, e := range o.cand[d] {
			scale = max(scale, 3*o.candE[d][k]/e.Rem)
		}
	}
	for i := range o.lag.bestLam {
		o.lag.bestLam[i] = 0
		if r.Float64() < 0.5 {
			o.lag.bestLam[i] = r.Uniform(0, scale)
		}
	}
	o.installLag(0)
	return rootBound(o)
}

// TestPricedBoundBelowOptimum: the capacity-priced bound at the root never
// exceeds the brute-force optimum — at the multipliers the subgradient
// steps find and at random ones — on small problems with a pinned GPU
// occupant and a future release, and on an instance whose optimum is
// tight to within the EDF tolerance. The bound must also be raised above
// the plain one often enough for the check to mean something.
func TestPricedBoundBelowOptimum(t *testing.T) {
	plat := platform.Motivational()
	// GPU speed-ups of 1.5-3 instead of the paper's 2-10 make the GPU the
	// cheapest resource for every job while it holds only a few, so
	// capacity binds on most problems.
	set, err := task.Generate(plat, func() task.GenConfig {
		c := task.DefaultGenConfig()
		c.NumTypes = 30
		c.GPUDivMin, c.GPUDivMax = 1.5, 3
		return c
	}(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(17)
	problems := []*sched.Problem{tightProblem()}
	for len(problems) < 400 {
		problems = append(problems, pricedProblem(r, plat, set))
	}
	raised, futureOnPinnedGPU := 0, 0
	for trial, p := range problems {
		o := &Optimal{}
		o.solve(p, 1)
		if !o.priced {
			continue
		}
		best, opt, found := bruteForce(p)
		if !found {
			continue
		}
		root := rootBound(o)
		if root > opt {
			t.Fatalf("trial %d: priced root bound %v exceeds the optimum %v by %g", trial, root, opt, root-opt)
		}
		if root > o.pinnedE+o.sufMinE[0]+1e-6 {
			raised++
		}
		for k := 0; k < 20; k++ {
			if root := randomRoot(r, o); root > opt {
				t.Fatalf("trial %d: root bound %v at random multipliers %v exceeds the optimum %v by %g",
					trial, root, o.lag.bestLam, opt, root-opt)
			}
		}
		if p.Jobs[0].Pinned(plat) && best[len(best)-1] == 2 {
			futureOnPinnedGPU++
		}
	}
	if raised < 100 || futureOnPinnedGPU == 0 {
		t.Fatalf("bound raised on %d problems, optimum with the future release behind a pinned GPU occupant on %d: the check exercised too little",
			raised, futureOnPinnedGPU)
	}
	t.Logf("priced bound above the plain one on %d problems; %d optima put the future release behind a pinned GPU occupant", raised, futureOnPinnedGPU)
}

// TestPricedSearchMatchesPlain: with capacity priced from the root, the
// search returns the same decision as the plain search (==, no
// tolerance) and never expands a node the plain search does not.
func TestPricedSearchMatchesPlain(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(61)
	plain := &Optimal{NodeLimit: 2_000_000}
	priced := &Optimal{NodeLimit: 2_000_000}
	plainNodes, pricedNodes := 0, 0
	for trial := 0; trial < 60; trial++ {
		p := randomWideProblem(r, plat, set)
		want := plain.solve(p, 0)
		got := priced.solve(p, 1)
		if plain.LastStats.Truncated || priced.LastStats.Truncated {
			t.Fatalf("trial %d: truncated under a 2M-node limit", trial)
		}
		assertSameDecision(t, trial, want, got)
		if priced.LastStats.Nodes > plain.LastStats.Nodes {
			t.Fatalf("trial %d: priced search expanded %d nodes, plain %d", trial, priced.LastStats.Nodes, plain.LastStats.Nodes)
		}
		plainNodes += plain.LastStats.Nodes
		pricedNodes += priced.LastStats.Nodes
	}
	if pricedNodes >= plainNodes {
		t.Fatalf("pricing cut no nodes: %d priced, %d plain", pricedNodes, plainNodes)
	}
	t.Logf("nodes: %d plain, %d priced from the root", plainNodes, pricedNodes)
}
