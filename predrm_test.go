package predrm_test

import (
	"errors"
	"math"
	"testing"

	"predrm"
	"predrm/internal/trace"
)

// TestFacadeEndToEnd exercises the public API exactly as the doc-comment
// quick start does.
func TestFacadeEndToEnd(t *testing.T) {
	plat := predrm.DefaultPlatform()
	if plat.Len() != 6 {
		t.Fatalf("platform size %d", plat.Len())
	}
	set, err := predrm.GenerateTaskSet(plat, predrm.DefaultTaskGenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := predrm.DefaultTraceGenConfig(predrm.VeryTight)
	tcfg.Length = 120
	tcfg.InterarrivalMean = 2.5
	tcfg.InterarrivalStd = 0.8
	tr, err := predrm.GenerateTrace(set, tcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := predrm.NewOracle(tr, predrm.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := predrm.Simulate(predrm.SimConfig{
		Platform:  plat,
		TaskSet:   set,
		Solver:    predrm.NewHeuristic(),
		Predictor: oracle,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 120 || res.DeadlineMisses != 0 {
		t.Fatalf("unexpected result: %+v", res)
	}
}

// TestFacadeNilTrace: Simulate refuses a nil trace with trace's named
// error instead of panicking.
func TestFacadeNilTrace(t *testing.T) {
	plat := predrm.DefaultPlatform()
	set, err := predrm.GenerateTaskSet(plat, predrm.DefaultTaskGenConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, err = predrm.Simulate(predrm.SimConfig{Platform: plat, TaskSet: set, Solver: predrm.NewHeuristic()}, nil)
	if !errors.Is(err, trace.ErrNilTrace) {
		t.Fatalf("Simulate(nil trace) = %v, want %v", err, trace.ErrNilTrace)
	}
}

// TestFacadeSolvers exercises the three solver constructors on the
// motivational problem.
func TestFacadeSolvers(t *testing.T) {
	set := predrm.MotivationalTaskSet()
	j1 := predrm.NewJob(0, set.Type(0), 0, 8)
	jp := predrm.NewJob(1, set.Type(1), 1, 5)
	jp.Predicted = true
	p := &predrm.Problem{Platform: set.Platform, Time: 0, Jobs: []*predrm.Job{j1, jp}}

	for _, s := range []predrm.Solver{predrm.NewHeuristic(), predrm.NewOptimal(), &predrm.MILPSolver{}} {
		// The MILP formulation bars predicted tasks from the GPU; the
		// fallback admission still accepts τ1.
		d, ok := predrm.Admit(s, p)
		if !ok {
			t.Fatalf("%T rejected the motivational problem", s)
		}
		if d.Mapping[0] == -1 {
			t.Fatalf("%T left τ1 unmapped", s)
		}
	}

	// Heuristic and exact agree on the scenario (b) optimum.
	dh, _ := predrm.Admit(predrm.NewHeuristic(), p)
	do, _ := predrm.Admit(predrm.NewOptimal(), p)
	if math.Abs(dh.Energy-8.8) > 1e-9 || math.Abs(do.Energy-8.8) > 1e-9 {
		t.Fatalf("energies %v / %v, want 8.8", dh.Energy, do.Energy)
	}
}

// TestFacadePredictors exercises the online-predictor constructors.
func TestFacadePredictors(t *testing.T) {
	m, err := predrm.NewMarkov(10, predrm.NewTwoPhase(0.3), 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if m.Overhead() != 0.05 {
		t.Fatalf("overhead %v", m.Overhead())
	}
	if _, err := predrm.NewMarkov(0, predrm.NewEWMA(0.2), 0); err == nil {
		t.Fatal("accepted zero types")
	}
}

// TestFacadeStaticAndGantt exercises the baseline RM and the Gantt chart
// through the public API.
func TestFacadeStaticAndGantt(t *testing.T) {
	plat := predrm.DefaultPlatform()
	set, err := predrm.GenerateTaskSet(plat, predrm.DefaultTaskGenConfig(), 21)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := predrm.DefaultTraceGenConfig(predrm.VeryTight)
	tcfg.Length = 80
	tcfg.InterarrivalMean = 2.5
	tcfg.InterarrivalStd = 0.8
	tr, err := predrm.GenerateTrace(set, tcfg, 22)
	if err != nil {
		t.Fatal(err)
	}
	res, err := predrm.Simulate(predrm.SimConfig{
		Platform:        plat,
		TaskSet:         set,
		Solver:          predrm.NewStaticRM(predrm.BuildStaticTable(set)),
		RecordExecution: true,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("deadline misses: %d", res.DeadlineMisses)
	}
	chart, err := predrm.NewGantt(plat, res.Execution)
	if err != nil {
		t.Fatal(err)
	}
	if u := chart.Utilization(); len(u) != plat.Len() {
		t.Fatalf("utilization size %d", len(u))
	}
}

// TestFacadeLookahead exercises the multi-step horizon through the public
// API.
func TestFacadeLookahead(t *testing.T) {
	plat := predrm.DefaultPlatform()
	set, err := predrm.GenerateTaskSet(plat, predrm.DefaultTaskGenConfig(), 31)
	if err != nil {
		t.Fatal(err)
	}
	tcfg := predrm.DefaultTraceGenConfig(predrm.VeryTight)
	tcfg.Length = 60
	tcfg.InterarrivalMean = 2.5
	tcfg.InterarrivalStd = 0.8
	tr, err := predrm.GenerateTrace(set, tcfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := predrm.NewOracle(tr, predrm.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len()})
	if err != nil {
		t.Fatal(err)
	}
	res, err := predrm.Simulate(predrm.SimConfig{
		Platform:  plat,
		TaskSet:   set,
		Solver:    predrm.NewOptimal(),
		Predictor: oracle,
		Lookahead: 3,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("%d misses", res.DeadlineMisses)
	}
}

// TestFacadeProfiles checks the experiment-facing re-exports.
func TestFacadeProfiles(t *testing.T) {
	if predrm.PaperProfile().InterarrivalMean != 1.2 {
		t.Fatal("paper profile wrong")
	}
	if predrm.CalibratedProfile().Name != "calibrated" {
		t.Fatal("calibrated profile wrong")
	}
	cfg := predrm.DefaultExperimentConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}
