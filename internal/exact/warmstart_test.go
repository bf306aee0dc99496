package exact

import (
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
)

// evolveActivation builds the successor activation of p under mapping:
// mapped jobs execute (a few to completion), predicted jobs are discarded
// (a forecast is re-decided every time), and a couple of fresh arrivals
// join. Surviving *Job pointers carry over — the identity the warm state
// matches on.
func evolveActivation(r *rng.Rand, p *sched.Problem, mapping []int, set *task.Set, nextID *int) *sched.Problem {
	now := p.Time + r.Uniform(0.5, 2)
	jobs := make([]*sched.Job, 0, len(p.Jobs)+2)
	for i, j := range p.Jobs {
		if j.Predicted || mapping[i] == sched.Unmapped {
			continue
		}
		j.Resource = mapping[i]
		if r.Float64() < 0.2 {
			continue // completed since the previous activation
		}
		if r.Float64() < 0.6 {
			j.Started = true
			j.ExecRes = j.Resource
			j.Frac *= r.Uniform(0.5, 1)
		}
		if j.AbsDeadline <= now+sched.Eps {
			continue
		}
		jobs = append(jobs, j)
	}
	for k := r.Intn(3); k > 0; k-- {
		ty := set.Type(r.Intn(set.Len()))
		jobs = append(jobs, sched.NewJob(*nextID, ty, now, r.Uniform(40, 120)))
		*nextID++
	}
	if r.Float64() < 0.5 {
		ty := set.Type(r.Intn(set.Len()))
		jp := sched.NewJob(*nextID, ty, now+r.Uniform(0, 4), r.Uniform(40, 120))
		jp.Predicted = true
		*nextID++
		jobs = append(jobs, jp)
	}
	return &sched.Problem{Platform: p.Platform, Time: now, Jobs: jobs}
}

// runWarmColdSequences drives random activation sequences through a
// warm-started and a cold solver and requires bit-identical decisions on
// every completed solve. It returns how many solves the warm solver
// actually seeded and how many nodes its bound cut, so callers can insist
// the warm path was genuinely exercised rather than vacuously agreeing.
func runWarmColdSequences(t *testing.T, warm, cold *Optimal, seed uint64, trials int) (seeded, cuts int) {
	t.Helper()
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(seed)
	for trial := 0; trial < trials; trial++ {
		p := randomWideProblem(r, plat, set)
		nextID := 1000
		for step := 0; step < 5; step++ {
			cd := cold.Solve(p)
			if cold.LastStats.Truncated {
				break // anytime regime: no determinism claim
			}
			wd := warm.Solve(p)
			if warm.LastStats.Truncated {
				t.Fatalf("trial %d step %d: warm truncated where cold completed", trial, step)
			}
			if warm.LastStats.WarmSeeded {
				seeded++
				cuts += warm.LastStats.WarmCuts
			}
			assertSameDecision(t, trial*10+step, cd, wd)
			if !cd.Feasible {
				break
			}
			p = evolveActivation(r, p, cd.Mapping, set, &nextID)
		}
	}
	return seeded, cuts
}

// TestWarmStartMatchesColdSerial is the tentpole soundness contract
// (DESIGN.md §10): across consecutive activations, the warm-started exact
// solver must return bit-identical decisions to a cold solver — same
// feasibility, same mapping, exactly equal energy — while actually seeding
// and pruning.
func TestWarmStartMatchesColdSerial(t *testing.T) {
	warm := &Optimal{NodeLimit: 2_000_000, WarmStart: true}
	cold := &Optimal{NodeLimit: 2_000_000}
	seeded, cuts := runWarmColdSequences(t, warm, cold, 909, 40)
	if seeded == 0 {
		t.Fatal("warm solver never seeded a bound; the differential test is vacuous")
	}
	t.Logf("seeded %d warm solves, %d warm-only cuts", seeded, cuts)
}

// TestWarmStartOffRecordsNothing: with WarmStart unset the solver must
// behave exactly as before the feature existed — no recording, no
// seeding, zero-value stats — so existing golden traces remain valid.
func TestWarmStartOffRecordsNothing(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(11)
	o := &Optimal{NodeLimit: 2_000_000}
	for trial := 0; trial < 10; trial++ {
		p := randomWideProblem(r, plat, set)
		o.Solve(p)
		if o.LastStats.WarmSeeded || o.LastStats.WarmCuts != 0 {
			t.Fatalf("trial %d: WarmStart=false solver reported warm activity: %+v", trial, o.LastStats)
		}
		if o.warm.Valid() {
			t.Fatalf("trial %d: WarmStart=false solver recorded warm state", trial)
		}
	}
}

// BenchmarkOptimalWarmStart measures the node-count payoff of the warm
// bound on a steady-state activation: the warm solver re-solves the same
// successor over and over (delta zero after its first solve — the best
// case, analogous to the repeated AdmitProv solves within one
// activation), the cold solver starts from scratch each time.
func BenchmarkOptimalWarmStart(b *testing.B) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		b.Fatal(err)
	}
	r := rng.New(29)
	var p1, p2 *sched.Problem
	bestSaved, bestCold := 0, 0
	probe := &Optimal{}
	for attempt := 0; attempt < 400; attempt++ {
		cand := wideProblem(r, plat, set, 12, 30, 70)
		d := probe.Solve(cand)
		if !d.Feasible || probe.LastStats.Truncated {
			continue
		}
		nextID := 1000
		succ := evolveActivation(r, cand, d.Mapping, set, &nextID)
		d2 := probe.Solve(succ)
		if !d2.Feasible || probe.LastStats.Truncated {
			continue
		}
		coldNodes := probe.LastStats.Nodes
		wp := &Optimal{WarmStart: true}
		wp.Solve(cand)
		wp.Solve(succ)
		// Prefer the pair where the warm bound actually cuts: the payoff
		// case is a successor whose heuristic incumbent is weak, so the
		// previous activation's repaired solution out-prunes it.
		if saved := coldNodes - wp.LastStats.Nodes; wp.LastStats.WarmSeeded && saved > bestSaved {
			bestSaved, bestCold = saved, coldNodes
			p1, p2 = cand, succ
		}
	}
	if p2 == nil {
		b.Fatal("no steady-state pair where the warm bound cuts nodes")
	}
	b.Logf("successor tree: %d nodes cold, %d saved warm", bestCold, bestSaved)

	b.Run("cold", func(b *testing.B) {
		o := &Optimal{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Solve(p2)
		}
	})

	b.Run("warm", func(b *testing.B) {
		o := &Optimal{WarmStart: true}
		o.Solve(p1) // record the previous activation
		if d := o.Solve(p2); !d.Feasible || !o.LastStats.WarmSeeded {
			b.Fatalf("warm solve not seeded on the steady-state pair: %+v", o.LastStats)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			o.Solve(p2)
		}
	})
}
