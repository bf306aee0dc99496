package exact

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

// wideProblem draws an instance with n free-ish jobs and relative
// deadlines in [dlo, dhi]. Tight deadlines keep the energy-cheapest
// resource (usually the GPU) from holding every job, so the greedy seed is
// suboptimal and the branch-and-bound tree is genuinely wide — the regime
// the parallel search exists for.
func wideProblem(r *rng.Rand, plat *platform.Platform, set *task.Set, n int, dlo, dhi float64) *sched.Problem {
	now := r.Uniform(0, 50)
	jobs := make([]*sched.Job, 0, n+1)
	for i := 0; i < n; i++ {
		ty := set.Type(r.Intn(set.Len()))
		arr := now - r.Uniform(0, 10)
		j := sched.NewJob(i, ty, arr, r.Uniform(dlo, dhi))
		if j.AbsDeadline <= now {
			j.AbsDeadline = now + r.Uniform(10, dhi)
		}
		if r.Float64() < 0.2 {
			j.Resource = r.Intn(plat.Len())
			if r.Float64() < 0.5 {
				j.Started = true
				j.ExecRes = j.Resource
				j.Frac = r.Uniform(0.2, 1)
			}
		}
		jobs = append(jobs, j)
	}
	if r.Float64() < 0.5 {
		ty := set.Type(r.Intn(set.Len()))
		jp := sched.NewJob(n, ty, now+r.Uniform(0, 4), r.Uniform(dlo, dhi))
		jp.Predicted = true
		jobs = append(jobs, jp)
	}
	return &sched.Problem{Platform: plat, Time: now, Jobs: jobs}
}

// randomWideProblem is the test-sized wide instance: 8-12 jobs under
// contended deadlines, a few hundred branch-and-bound nodes on average.
func randomWideProblem(r *rng.Rand, plat *platform.Platform, set *task.Set) *sched.Problem {
	return wideProblem(r, plat, set, 8+r.Intn(5), 40, 90)
}

// assertSameDecision requires the two decisions to be bit-identical: same
// feasibility, same mapping, and exactly equal energy (==, no tolerance —
// the parallel search performs the same float additions in the same order).
func assertSameDecision(t *testing.T, trial int, serial, par core.Decision) {
	t.Helper()
	if serial.Feasible != par.Feasible {
		t.Fatalf("trial %d: serial feasible=%v, parallel=%v", trial, serial.Feasible, par.Feasible)
	}
	if serial.Energy != par.Energy {
		t.Fatalf("trial %d: serial energy %v != parallel %v (diff %g)",
			trial, serial.Energy, par.Energy, par.Energy-serial.Energy)
	}
	if len(serial.Mapping) != len(par.Mapping) {
		t.Fatalf("trial %d: mapping lengths differ", trial)
	}
	for i := range serial.Mapping {
		if serial.Mapping[i] != par.Mapping[i] {
			t.Fatalf("trial %d: mapping differs at %d: serial %v, parallel %v",
				trial, i, serial.Mapping, par.Mapping)
		}
	}
}

// TestParallelMatchesSerial is the determinism contract: for every
// GOMAXPROCS and worker count, a completed parallel solve must be
// bit-identical to the serial one.
func TestParallelMatchesSerial(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 2, 8} {
		old := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(old)
		for _, workers := range []int{2, 4, 8} {
			r := rng.New(uint64(1000*procs + workers))
			serial := &Optimal{NodeLimit: 2_000_000}
			par := &Optimal{NodeLimit: 2_000_000, Workers: workers}
			parallelSolves := 0
			for trial := 0; trial < 60; trial++ {
				var p *sched.Problem
				if trial%3 == 0 {
					p = randomSmallProblem(r, plat, set)
				} else {
					p = randomWideProblem(r, plat, set)
				}
				sd := serial.Solve(p)
				if serial.LastStats.Truncated {
					continue // anytime regime: no determinism claim
				}
				pd := par.Solve(p)
				if par.LastStats.Truncated {
					t.Fatalf("trial %d: parallel truncated where serial completed", trial)
				}
				if par.LastStats.Workers > 0 {
					parallelSolves++
				}
				assertSameDecision(t, trial, sd, pd)
			}
			if parallelSolves == 0 {
				t.Fatalf("procs=%d workers=%d: no solve actually took the parallel path", procs, workers)
			}
		}
	}
}

// TestParallelMatchesSerialNoCache repeats the differential check with the
// pruning cache disabled on both sides: determinism must not depend on the
// cache, and the cache must not change results.
func TestParallelMatchesSerialNoCache(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	serial := &Optimal{NodeLimit: 2_000_000, CacheSlots: -1}
	par := &Optimal{NodeLimit: 2_000_000, Workers: 4, CacheSlots: -1}
	withCache := &Optimal{NodeLimit: 2_000_000, Workers: 4}
	for trial := 0; trial < 40; trial++ {
		p := randomWideProblem(r, plat, set)
		sd := serial.Solve(p)
		if serial.LastStats.Truncated {
			continue
		}
		pd := par.Solve(p)
		cd := withCache.Solve(p)
		assertSameDecision(t, trial, sd, pd)
		assertSameDecision(t, trial, sd, cd)
	}
}

// TestParallelStats: a parallel solve must report its task and worker
// counts and feed the exact.parallel.* instruments.
func TestParallelStats(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	o := &Optimal{Workers: 4}
	o.AttachMetrics(reg)
	r := rng.New(31)
	sawParallel := false
	for trial := 0; trial < 20 && !sawParallel; trial++ {
		p := randomWideProblem(r, plat, set)
		o.Solve(p)
		if o.LastStats.Workers > 0 {
			sawParallel = true
			if o.LastStats.Tasks < 2 {
				t.Fatalf("parallel solve with %d tasks", o.LastStats.Tasks)
			}
			if o.LastStats.Workers > 4 {
				t.Fatalf("more workers than configured: %d", o.LastStats.Workers)
			}
			if o.LastStats.Nodes == 0 {
				t.Fatal("parallel solve reported zero nodes")
			}
		}
	}
	if !sawParallel {
		t.Fatal("no solve took the parallel path")
	}
	if reg.Counter("exact.parallel.solves").Value() == 0 {
		t.Fatal("exact.parallel.solves not counted")
	}
	if reg.Gauge("exact.parallel.workers").Value() == 0 {
		t.Fatal("exact.parallel.workers gauge not set")
	}
}

// TestParallelAnytimeUnderNodeLimit: when the node budget truncates the
// parallel search, the result must still be feasible and no worse than the
// heuristic seed (anytime soundness), and the node accounting must respect
// the limit up to the workers' batching slack.
func TestParallelAnytimeUnderNodeLimit(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(41)
	h := &core.Heuristic{}
	const limit = 200
	o := &Optimal{NodeLimit: limit, Workers: 8}
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
		if slack := limit + 8*nodeBatch + 64; o.LastStats.Nodes > slack {
			t.Fatalf("trial %d: %d nodes expanded, limit %d (max slack %d)",
				trial, o.LastStats.Nodes, limit, slack)
		}
	}
}

// TestParallelBudgetedFallthrough drives the parallel solver inside a
// BudgetedSolver chain with a node budget small enough to exhaust
// mid-search: decisions must stay sound (feasible means schedulable),
// exhaustion must be reported, and the chain must fall through to its
// cheaper stage rather than wedge. Run under -race this also exercises the
// worker pool shutdown on budget exhaustion.
func TestParallelBudgetedFallthrough(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(53)
	o := &Optimal{Workers: 8}
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

// TestCacheHitsAcrossActivations: the cache fronts the EDF simulation
// only. Solving a problem without a future release leaves it untouched;
// once a predicted job is added, re-solving the identical activation must
// be answered from the cross-activation cache, visibly in telemetry.
func TestCacheHitsAcrossActivations(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	o := &Optimal{}
	o.AttachMetrics(reg)
	r := rng.New(61)
	p := randomWideProblem(r, plat, set)
	plain := &sched.Problem{Platform: p.Platform, Time: p.Time, Policy: p.Policy}
	for _, j := range p.Jobs {
		if !j.Predicted {
			plain.Jobs = append(plain.Jobs, j)
		}
	}
	o.Solve(plain)
	if h, m := reg.Counter("exact.cache.hits").Value(), reg.Counter("exact.cache.misses").Value(); h != 0 || m != 0 {
		t.Fatalf("a problem without future releases reached the cache: hits=%d misses=%d", h, m)
	}

	jp := sched.NewJob(len(plain.Jobs), set.Type(0), p.Time+2, 60)
	jp.Predicted = true
	pred := &sched.Problem{Platform: p.Platform, Time: p.Time, Policy: p.Policy,
		Jobs: append(append([]*sched.Job(nil), plain.Jobs...), jp)}
	d1 := o.Solve(pred)
	firstHits := reg.Counter("exact.cache.hits").Value()
	if reg.Counter("exact.cache.misses").Value() == 0 {
		t.Fatal("no EDF-simulation probes reached the cache")
	}
	d2 := o.Solve(pred)
	assertSameDecision(t, 0, d1, d2)
	hits := reg.Counter("exact.cache.hits").Value()
	if hits <= firstHits {
		t.Fatalf("re-solving an identical activation gained no cache hits (%d -> %d)", firstHits, hits)
	}
	if rate := reg.Gauge("exact.cache.hit_rate").Value(); rate <= 0 || rate > 1 {
		t.Fatalf("hit rate gauge %v outside (0,1]", rate)
	}
}

// TestCacheDisabled: CacheSlots < 0 must bypass the cache entirely and keep
// its instruments silent.
func TestCacheDisabled(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	o := &Optimal{CacheSlots: -1}
	o.AttachMetrics(reg)
	r := rng.New(61)
	for trial := 0; trial < 10; trial++ {
		o.Solve(randomSmallProblem(r, plat, set))
	}
	if h, m := reg.Counter("exact.cache.hits").Value(), reg.Counter("exact.cache.misses").Value(); h != 0 || m != 0 {
		t.Fatalf("disabled cache counted probes: hits=%d misses=%d", h, m)
	}
}

// TestParallelMatchesBruteForce anchors the parallel path to ground truth
// on small instances (the serial differential already covers the rest).
func TestParallelMatchesBruteForce(t *testing.T) {
	plat := platform.Motivational()
	set, err := task.Generate(plat, func() task.GenConfig {
		c := task.DefaultGenConfig()
		c.NumTypes = 30
		return c
	}(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(71)
	o := &Optimal{Workers: 4}
	for trial := 0; trial < 150; trial++ {
		p := randomSmallProblem(r, plat, set)
		d := o.Solve(p)
		_, wantE, found := bruteForce(p)
		if d.Feasible != found {
			t.Fatalf("trial %d: parallel feasible=%v, brute force=%v", trial, d.Feasible, found)
		}
		if found && math.Abs(d.Energy-wantE) > 1e-9 {
			t.Fatalf("trial %d: parallel energy %v != brute force %v", trial, d.Energy, wantE)
		}
	}
}

// BenchmarkOptimalSolveParallel measures the parallel search against the
// serial baseline on wide instances. workers=1 is the serial path on the
// same problem set, so sub-benchmark ratios are the parallel speedup.
func BenchmarkOptimalSolveParallel(b *testing.B) {
	plat := platform.Default()
	set, _ := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	r := rng.New(97)
	problems := make([]*sched.Problem, 16)
	for i := range problems {
		problems[i] = wideProblem(r, plat, set, 14, 45, 95)
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			o := &Optimal{NodeLimit: 2_000_000, Workers: workers}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				o.Solve(problems[i%len(problems)])
			}
		})
	}
}
