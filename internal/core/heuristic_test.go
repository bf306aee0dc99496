package core

import (
	"math"
	"slices"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

func motivationalProblem(withPred bool) *sched.Problem {
	ts := task.Motivational()
	j1 := sched.NewJob(0, ts.Type(0), 0, 8)
	p := &sched.Problem{
		Platform: platform.Motivational(),
		Time:     0,
		Jobs:     []*sched.Job{j1},
	}
	if withPred {
		jp := sched.NewJob(1, ts.Type(1), 1, 5)
		jp.Predicted = true
		p.Jobs = append(p.Jobs, jp)
	}
	return p
}

func TestHeuristicMotivationalNoPrediction(t *testing.T) {
	// Without prediction the heuristic puts τ1 on the GPU: minimum energy.
	p := motivationalProblem(false)
	d := (&Heuristic{}).Solve(p)
	if !d.Feasible {
		t.Fatal("single-task problem must be feasible")
	}
	if d.Mapping[0] != 2 {
		t.Fatalf("τ1 mapped to %d, want GPU (2)", d.Mapping[0])
	}
	if math.Abs(d.Energy-2) > 1e-12 {
		t.Fatalf("energy = %v, want 2", d.Energy)
	}
}

func TestHeuristicMotivationalWithPrediction(t *testing.T) {
	// With the predicted τ2 (arrival 1, deadline 5), the GPU must be
	// reserved: τ1 goes to CPU1 — the paper's scenario (b).
	p := motivationalProblem(true)
	d := (&Heuristic{}).Solve(p)
	if !d.Feasible {
		t.Fatal("scenario (b) must be feasible")
	}
	if d.Mapping[0] != 0 || d.Mapping[1] != 2 {
		t.Fatalf("mapping = %v, want [0 2]", d.Mapping)
	}
	if math.Abs(d.Energy-8.8) > 1e-12 {
		t.Fatalf("energy = %v, want 8.8 (7.3 + 1.5)", d.Energy)
	}
}

func TestHeuristicRespectsPinned(t *testing.T) {
	ts := task.Motivational()
	plat := platform.Motivational()
	// τ1 started on the GPU: pinned. τ2 arrives; even though the GPU is
	// τ2's cheapest resource, it must not be planned there if infeasible,
	// and τ1 must stay.
	j1 := sched.NewJob(0, ts.Type(0), 0, 20)
	j1.Resource = 2
	j1.Started = true
	j1.ExecRes = j1.Resource
	j1.Frac = 0.9
	j2 := sched.NewJob(1, ts.Type(1), 1, 30)
	p := &sched.Problem{Platform: plat, Time: 1, Jobs: []*sched.Job{j1, j2}}
	d := (&Heuristic{}).Solve(p)
	if !d.Feasible {
		t.Fatal("must be feasible")
	}
	if d.Mapping[0] != 2 {
		t.Fatalf("pinned τ1 moved to %d", d.Mapping[0])
	}
	// τ2 fits behind τ1 on the GPU (τ1 ends at 1+4.5=5.5, τ2 runs to 8.5
	// ≤ 31): cheapest is still the GPU.
	if d.Mapping[1] != 2 {
		t.Fatalf("τ2 mapped to %d, want GPU", d.Mapping[1])
	}
}

func TestHeuristicInfeasibleOverload(t *testing.T) {
	// Two tasks, both only feasible on the GPU within their deadlines, and
	// the GPU cannot hold both.
	ts := task.Motivational()
	j1 := sched.NewJob(0, ts.Type(0), 0, 5.5) // only GPU (5) fits in 5.5
	j2 := sched.NewJob(1, ts.Type(1), 0, 3.5) // only GPU (3) fits in 3.5
	p := &sched.Problem{
		Platform: platform.Motivational(),
		Time:     0,
		Jobs:     []*sched.Job{j1, j2},
	}
	d := (&Heuristic{}).Solve(p)
	if d.Feasible {
		t.Fatalf("overloaded GPU accepted: %v", d.Mapping)
	}
}

func TestHeuristicMaxRegretOrder(t *testing.T) {
	// Construct a case where greedy-by-index fails but max-regret
	// succeeds: job A is flexible (two resources), job B only fits on
	// resource 0. Max-regret places B first.
	plat := platform.New(2, 0)
	tyA := &task.Type{ID: 0, WCET: []float64{4, 4}, Energy: []float64{1, 1.05}}
	tyB := &task.Type{ID: 1, WCET: []float64{4, task.NotExecutable}, Energy: []float64{5, task.NotExecutable}}
	jA := sched.NewJob(0, tyA, 0, 4)
	jB := sched.NewJob(1, tyB, 0, 4)
	p := &sched.Problem{Platform: plat, Time: 0, Jobs: []*sched.Job{jA, jB}}

	d := (&Heuristic{}).Solve(p)
	if !d.Feasible {
		t.Fatalf("max-regret should solve this: %v", d.Mapping)
	}
	if d.Mapping[0] != 1 || d.Mapping[1] != 0 {
		t.Fatalf("mapping = %v, want [1 0]", d.Mapping)
	}
}

func TestGreedyAblationCanBeWorse(t *testing.T) {
	// Same instance: the greedy variant maps job A first (to resource 0,
	// its cheapest), leaving job B stuck — documenting why max-regret
	// ordering matters (ablation A1).
	plat := platform.New(2, 0)
	tyA := &task.Type{ID: 0, WCET: []float64{4, 4}, Energy: []float64{1, 1.05}}
	tyB := &task.Type{ID: 1, WCET: []float64{4, task.NotExecutable}, Energy: []float64{5, task.NotExecutable}}
	jA := sched.NewJob(0, tyA, 0, 4)
	jB := sched.NewJob(1, tyB, 0, 4)
	p := &sched.Problem{Platform: plat, Time: 0, Jobs: []*sched.Job{jA, jB}}

	d := (&Heuristic{Greedy: true}).Solve(p)
	if d.Feasible {
		t.Fatalf("expected greedy to fail here, got %v", d.Mapping)
	}
}

func TestHeuristicMappingsAlwaysFeasibleProperty(t *testing.T) {
	// Whenever the heuristic claims feasibility, the mapping must pass the
	// independent Problem.FeasibleMapping check.
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(31)
	solved := 0
	for trial := 0; trial < 300; trial++ {
		p := randomProblem(r, plat, set)
		d := (&Heuristic{}).Solve(p)
		if !d.Feasible {
			continue
		}
		solved++
		if !p.FeasibleMapping(d.Mapping) {
			t.Fatalf("trial %d: heuristic mapping %v not actually feasible", trial, d.Mapping)
		}
		if got := p.Energy(d.Mapping); math.Abs(got-d.Energy) > 1e-9 {
			t.Fatalf("trial %d: reported energy %v != %v", trial, d.Energy, got)
		}
	}
	if solved == 0 {
		t.Fatal("no random problem was solvable; generator too harsh")
	}
}

// randomProblem builds a random RM activation with a mix of fresh, mapped,
// started and predicted jobs.
func randomProblem(r *rng.Rand, plat *platform.Platform, set *task.Set) *sched.Problem {
	now := r.Uniform(0, 50)
	n := 1 + r.Intn(6)
	jobs := make([]*sched.Job, 0, n+1)
	for i := 0; i < n; i++ {
		ty := set.Type(r.Intn(set.Len()))
		arr := now - r.Uniform(0, 10)
		j := sched.NewJob(i, ty, arr, r.Uniform(20, 120))
		if j.AbsDeadline <= now {
			j.AbsDeadline = now + r.Uniform(5, 60)
		}
		if r.Float64() < 0.6 {
			j.Resource = r.Intn(plat.Len())
			if r.Float64() < 0.6 {
				j.Started = true
				j.ExecRes = j.Resource
				j.Frac = r.Uniform(0.2, 1)
			}
		}
		jobs = append(jobs, j)
	}
	if r.Float64() < 0.5 {
		ty := set.Type(r.Intn(set.Len()))
		jp := sched.NewJob(n, ty, now+r.Uniform(0, 5), r.Uniform(20, 120))
		jp.Predicted = true
		jobs = append(jobs, jp)
	}
	return &sched.Problem{Platform: plat, Time: now, Jobs: jobs}
}

func TestAdmitFallsBackWithoutPrediction(t *testing.T) {
	// τ1 arriving with a predicted job that makes the joint problem
	// infeasible: Admit must retry without the prediction and accept.
	ts := task.Motivational()
	plat := platform.Motivational()
	j1 := sched.NewJob(0, ts.Type(0), 0, 5.5) // only GPU fits
	jp := sched.NewJob(1, ts.Type(1), 0, 3.5) // only GPU fits: conflict
	jp.Predicted = true
	p := &sched.Problem{Platform: plat, Time: 0, Jobs: []*sched.Job{j1, jp}}

	d, admitted := Admit(&Heuristic{}, p)
	if !admitted {
		t.Fatal("fallback admission failed")
	}
	if d.Mapping[0] != 2 {
		t.Fatalf("τ1 on %d, want GPU", d.Mapping[0])
	}
	if d.Mapping[1] != sched.Unmapped {
		t.Fatalf("dropped prediction still mapped: %v", d.Mapping)
	}
}

func TestAdmitRejectsWhenHopeless(t *testing.T) {
	ts := task.Motivational()
	plat := platform.Motivational()
	// Deadline shorter than every WCET: hopeless with or without pred.
	j1 := sched.NewJob(0, ts.Type(0), 0, 1)
	p := &sched.Problem{Platform: plat, Time: 0, Jobs: []*sched.Job{j1}}
	if _, admitted := Admit(&Heuristic{}, p); admitted {
		t.Fatal("hopeless task admitted")
	}
}

func TestAdmitAcceptsDirectly(t *testing.T) {
	p := motivationalProblem(true)
	d, admitted := Admit(&Heuristic{}, p)
	if !admitted || !d.Feasible {
		t.Fatal("direct admission failed")
	}
	if d.Mapping[1] == sched.Unmapped {
		t.Fatal("prediction dropped although joint solve succeeded")
	}
}

// referenceAdmit is the seed admission fallback: a fresh copy of the
// problem per dropped prediction and a pointer-keyed map to lift the
// sub-problem decision back onto p's job order.
func referenceAdmit(s Solver, p *sched.Problem) (Decision, bool) {
	cur := p
	for {
		d := s.Solve(cur)
		if d.Feasible {
			byJob := make(map[*sched.Job]int, len(cur.Jobs))
			for i, j := range cur.Jobs {
				byJob[j] = d.Mapping[i]
			}
			full := make([]int, len(p.Jobs))
			for i, j := range p.Jobs {
				if r, ok := byJob[j]; ok {
					full[i] = r
				} else {
					full[i] = sched.Unmapped
				}
			}
			return Decision{Mapping: full, Feasible: true, Energy: d.Energy}, true
		}
		drop := -1
		for i, j := range cur.Jobs {
			if j.Predicted && (drop == -1 || j.Arrival > cur.Jobs[drop].Arrival) {
				drop = i
			}
		}
		if drop == -1 {
			return rejectAll(p), false
		}
		q := &sched.Problem{Platform: cur.Platform, Time: cur.Time, Policy: cur.Policy}
		q.Jobs = append(append(q.Jobs, cur.Jobs[:drop]...), cur.Jobs[drop+1:]...)
		cur = q
	}
}

// TestAdmitScratchMatchesReference: the admission protocol on one reused
// AdmitScratch — predictions dropped in place, decisions lifted by the
// two-pointer walk — returns exactly the seed fallback's decisions, on
// problems carrying zero to three predicted jobs interleaved anywhere in
// the job order under a tight horizon, so that most solves fall back.
func TestAdmitScratchMatchesReference(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(8))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(81)
	h := &Heuristic{}
	var sc AdmitScratch
	fallbacks := 0
	for trial := 0; trial < 400; trial++ {
		p := randomProblem(r, plat, set)
		for k := r.Intn(4); k > 0; k-- {
			jp := sched.NewJob(100+k, set.Type(r.Intn(set.Len())), p.Time+r.Uniform(0, 8), r.Uniform(3, 20))
			jp.Predicted = true
			at := r.Intn(len(p.Jobs) + 1)
			p.Jobs = append(p.Jobs[:at], append([]*sched.Job{jp}, p.Jobs[at:]...)...)
		}
		want, wantOK := referenceAdmit(h, p)
		got, gotOK, err := AdmitProv(h, p, nil, &sc)
		if err != nil {
			t.Fatal(err)
		}
		if gotOK != wantOK || got.Feasible != want.Feasible || got.Energy != want.Energy ||
			!slices.Equal(got.Mapping, want.Mapping) {
			t.Fatalf("trial %d: got %+v (%v), reference %+v (%v)", trial, got, gotOK, want, wantOK)
		}
		if !gotOK || slices.Contains(got.Mapping[:len(p.Jobs)], sched.Unmapped) {
			fallbacks++
		}
	}
	t.Logf("%d of 400 admissions fell back", fallbacks)
	if fallbacks < 100 {
		t.Fatalf("only %d of 400 admissions fell back: the differential is not exercising the fallback", fallbacks)
	}
}

// blockedProblem builds a problem whose free jobs all rank the resources
// alike (each type's energy rises with one shared rank) and whose k
// cheapest resources each hold a Fixed blocker busy until just before
// most free jobs' deadlines. A far-deadline Fixed job on the dearest
// resource widens the window, so capacity still admits a free job on a
// blocked resource while its EDF probe fails: with k >= 2 a placement
// walk gets past its summary's best and second candidates, and with
// every resource but the dearest blocked it may run out of them.
func blockedProblem(r *rng.Rand, plat *platform.Platform, base float64) *sched.Problem {
	n := plat.Len()
	rank := make([]int, n) // rank[i] is resource i's place in the shared order
	byRank := make([]int, n)
	for i := range byRank {
		byRank[i] = i
	}
	for i := n - 1; i > 0; i-- {
		k := r.Intn(i + 1)
		byRank[i], byRank[k] = byRank[k], byRank[i]
	}
	for pos, res := range byRank {
		rank[res] = pos
	}
	newType := func(id int, wcet, scale float64) *task.Type {
		ty := &task.Type{ID: id, WCET: make([]float64, n), Energy: make([]float64, n)}
		for res := range n {
			ty.WCET[res] = wcet
			ty.Energy[res] = scale * float64(1+rank[res])
		}
		return ty
	}

	now := base + r.Uniform(0, 10)
	block := r.Uniform(5, 10)
	var jobs []*sched.Job
	k := r.Intn(min(5, n-1))
	if r.Float64() < 0.2 {
		k = n - 1 // only the far job's resource is left: walks exhaust
	}
	for b := range k {
		j := sched.NewJob(len(jobs), newType(100+b, block, 1), now-1, block+1.1)
		j.Resource, j.Fixed = byRank[b], true
		jobs = append(jobs, j)
	}
	far := sched.NewJob(len(jobs), newType(99, 0.5, 1), now, 10*block)
	far.Resource, far.Fixed = byRank[n-1], true
	jobs = append(jobs, far)
	for f := range 1 + r.Intn(6) {
		w := r.Uniform(1, 3)
		rel := block + w/2 // misses behind a blocker, but not penalised
		if r.Float64() < 0.3 {
			rel = block + w + r.Uniform(0.5, 5) // fits behind a blocker
		}
		jobs = append(jobs, sched.NewJob(len(jobs), newType(f, w, r.Uniform(0.5, 2)), now, rel))
	}
	return &sched.Problem{Platform: plat, Time: now, Jobs: jobs}
}

// TestPlacementWalkResumesPastSummary: a placement walk starts at the
// picked job's candidate summary and enters the candidate source only for
// a third candidate. On blocked problems, where the best and second
// candidates fail their EDF probes, every decision must still match the
// seed implementation, on the matrix source (5c1g) and on the index
// (28c4g); provenance counts the walks that resumed (two or more
// edf_infeasible verdicts for one job in one solve), so the path cannot
// go untested.
func TestPlacementWalkResumesPastSummary(t *testing.T) {
	for _, spec := range []string{"5c1g", "28c4g"} {
		plat, err := platform.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		rec := telemetry.NewProvRecorder()
		recorded, plain := &Heuristic{}, &Heuristic{Cache: sched.NewFeasCache(0)}
		recorded.AttachProvenance(rec)
		r := rng.New(131)
		resumed, feasible := 0, 0
		for trial := range 300 {
			p := blockedProblem(r, plat, float64(trial)*20)
			want := referenceSolve(p, false)
			rec.Reset()
			for name, h := range map[string]*Heuristic{"provenance": recorded, "cache": plain} {
				if got := solveWithPlan(h, p); got.Feasible != want.Feasible ||
					got.Energy != want.Energy || !slices.Equal(got.Mapping, want.Mapping) {
					t.Fatalf("%s %s trial %d: got %+v, reference %+v", spec, name, trial, got, want)
				}
			}
			if want.Feasible {
				feasible++
			}
			failed := make(map[int]int)
			for _, c := range rec.Snapshot().Candidates {
				if c.Verdict == telemetry.VerdictEDFInfeasible {
					if failed[c.Job]++; failed[c.Job] == 2 {
						resumed++
					}
				}
			}
		}
		t.Logf("%s: %d resumed walks, %d feasible of 300", spec, resumed, feasible)
		if resumed < 100 || feasible == 0 || feasible == 300 {
			t.Fatalf("%s: %d resumed walks and %d feasible solves of 300; the generator no longer exercises the resume", spec, resumed, feasible)
		}
	}
}
