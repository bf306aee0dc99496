package static

import (
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/exact"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/sim"
	"predrm/internal/task"
	"predrm/internal/trace"
)

func TestBuildTableOrdersByEnergy(t *testing.T) {
	set := task.Motivational() // energies τ1: 7.3, 8.4, 2 → GPU first
	tab := BuildTable(set)
	if len(tab) != 2 {
		t.Fatalf("table size %d", len(tab))
	}
	if tab[0][0] != 2 || tab[0][1] != 0 || tab[0][2] != 1 {
		t.Fatalf("τ1 preference = %v, want [2 0 1]", tab[0])
	}
}

func TestBuildTableSkipsNonExecutable(t *testing.T) {
	set := &task.Set{
		Platform: platform.New(2, 0),
		Types: []*task.Type{{
			ID:     0,
			WCET:   []float64{5, task.NotExecutable},
			Energy: []float64{2, task.NotExecutable},
		}},
	}
	tab := BuildTable(set)
	if len(tab[0]) != 1 || tab[0][0] != 0 {
		t.Fatalf("preference = %v", tab[0])
	}
}

func TestSolvePlacesOnFirstFeasiblePreference(t *testing.T) {
	set := task.Motivational()
	tab := BuildTable(set)
	rm := New(tab)
	// Fresh τ1: goes to the GPU (first preference).
	j1 := sched.NewJob(0, set.Type(0), 0, 8)
	p := &sched.Problem{Platform: set.Platform, Time: 0, Jobs: []*sched.Job{j1}}
	d := rm.Solve(p)
	if !d.Feasible || d.Mapping[0] != 2 {
		t.Fatalf("decision %+v", d)
	}
	// With the GPU held by an immutable earlier-deadline job such that
	// queueing behind it busts τ2's deadline, τ2 falls to CPU1:
	// blocker occupies GPU [0,5]; τ2 (GPU WCET 3) would finish at 8 > 7.2,
	// while CPU1 (WCET 7) makes it.
	blocker := sched.NewJob(1, set.Type(0), 0, 6)
	blocker.Resource = 2
	blocker.Started = true
	blocker.ExecRes = 2
	j2 := sched.NewJob(2, set.Type(1), 0, 7.2)
	p2 := &sched.Problem{Platform: set.Platform, Time: 0, Jobs: []*sched.Job{blocker, j2}}
	d2 := rm.Solve(p2)
	if !d2.Feasible {
		t.Fatal("should be feasible on CPU1")
	}
	if d2.Mapping[0] != 2 {
		t.Fatal("standing assignment moved")
	}
	if d2.Mapping[1] != 0 {
		t.Fatalf("τ2 on %d, want CPU1 fallback", d2.Mapping[1])
	}
}

func TestSolveNeverRemaps(t *testing.T) {
	// Even when remapping would admit the arrival, the static RM refuses.
	// Platform: 1 CPU + 1 GPU. j1 is flexible (CPU 12, GPU 10) and sits
	// queued on the GPU with deadline 15; j2 is GPU-only (WCET 8,
	// deadline 9). On the GPU alone no order fits both; moving j1 to the
	// CPU admits both — but only a dynamic RM may do that.
	plat := platform.New(1, 1)
	tyFlex := &task.Type{ID: 0, WCET: []float64{12, 10}, Energy: []float64{6, 2}}
	tyGPU := &task.Type{ID: 1, WCET: []float64{task.NotExecutable, 8}, Energy: []float64{task.NotExecutable, 3}}
	set := &task.Set{Platform: plat, Types: []*task.Type{tyFlex, tyGPU}}
	rm := New(BuildTable(set))

	j1 := sched.NewJob(0, tyFlex, 0, 15)
	j1.Resource = 1 // queued on the GPU, not started
	j2 := sched.NewJob(1, tyGPU, 0, 9)
	p := &sched.Problem{Platform: plat, Time: 0, Jobs: []*sched.Job{j1, j2}}
	if d := rm.Solve(p); d.Feasible {
		t.Fatalf("static RM admitted by remapping: %v", d.Mapping)
	}
	// The dynamic heuristic admits the same instance by moving j1.
	d := (&core.Heuristic{}).Solve(p)
	if !d.Feasible || d.Mapping[0] != 0 || d.Mapping[1] != 1 {
		t.Fatalf("dynamic heuristic should remap j1 to the CPU: %+v", d)
	}
}

func TestStaticEndToEndWeakerThanDynamic(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	gcfg := trace.DefaultGenConfig(trace.VeryTight)
	gcfg.Length = 200
	gcfg.InterarrivalMean = 2.2
	gcfg.InterarrivalStd = 0.7
	var rejStatic, rejExact float64
	r := rng.New(9)
	for i := 0; i < 5; i++ {
		tr, err := trace.Generate(set, gcfg, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		cfg := engine.Config{Platform: plat, TaskSet: set, Solver: New(BuildTable(set))}
		rs, err := sim.Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if rs.DeadlineMisses != 0 {
			t.Fatalf("static RM missed %d deadlines", rs.DeadlineMisses)
		}
		cfg.Solver = &exact.Optimal{}
		rd, err := sim.Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		rejStatic += rs.RejectionPct()
		rejExact += rd.RejectionPct()
	}
	// The fully dynamic exact RM must dominate the no-remap baseline.
	// (Interestingly, Algorithm 1 does NOT always: its aggressive
	// energy-driven remapping can crowd the GPU — see ablation notes.)
	if rejStatic <= rejExact {
		t.Fatalf("static (%.2f%%) should reject more than exact dynamic (%.2f%%)", rejStatic/5, rejExact/5)
	}
}

func TestSolveRejectsUnknownType(t *testing.T) {
	set := task.Motivational()
	rm := New(BuildTable(set))
	alien := &task.Type{ID: 99, WCET: []float64{1, 1, 1}, Energy: []float64{1, 1, 1}}
	j := sched.NewJob(0, alien, 0, 10)
	p := &sched.Problem{Platform: set.Platform, Time: 0, Jobs: []*sched.Job{j}}
	if d := rm.Solve(p); d.Feasible {
		t.Fatal("accepted type outside the design-time table")
	}
}
