package sim

import (
	"errors"
	"math"
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/exact"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/trace"
)

func testWorkload(t *testing.T, tight trace.Tightness, length int, meanIA float64, seed uint64) (*task.Set, *trace.Trace) {
	t.Helper()
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultGenConfig(tight)
	cfg.Length = length
	cfg.InterarrivalMean = meanIA
	cfg.InterarrivalStd = meanIA / 3
	tr, err := trace.Generate(set, cfg, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return set, tr
}

func baseConfig(set *task.Set) engine.Config {
	return engine.Config{
		Platform: platform.Default(),
		TaskSet:  set,
		Solver:   &core.Heuristic{},
	}
}

func oracle(t *testing.T, tr *trace.Trace, set *task.Set, cfg predict.OracleConfig) *predict.Oracle {
	t.Helper()
	cfg.NumTypes = set.Len()
	o, err := predict.NewOracle(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func TestRunBasicInvariants(t *testing.T) {
	set, tr := testWorkload(t, trace.VeryTight, 200, 5, 1)
	res, err := Run(baseConfig(set), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != 200 || res.Accepted+res.Rejected != 200 {
		t.Fatalf("count mismatch: %+v", res)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("%d accepted jobs missed deadlines", res.DeadlineMisses)
	}
	if res.Accepted == 0 {
		t.Fatal("nothing accepted")
	}
	// Energy closure: per-job energies sum to the total.
	var sum float64
	for _, j := range res.Jobs {
		sum += j.Energy
		if j.Accepted && j.FinishTime == 0 {
			t.Fatalf("accepted job %d never finished", j.ID)
		}
		if !j.Accepted && j.Energy != 0 {
			t.Fatalf("rejected job %d consumed energy", j.ID)
		}
	}
	if math.Abs(sum-res.TotalEnergy) > 1e-6 {
		t.Fatalf("energy closure violated: jobs %.9f vs total %.9f", sum, res.TotalEnergy)
	}
}

func TestRunDeterminism(t *testing.T) {
	set, tr := testWorkload(t, trace.VeryTight, 100, 4, 2)
	a, err := Run(baseConfig(set), tr)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(baseConfig(set), tr)
	if err != nil {
		t.Fatal(err)
	}
	if a.Accepted != b.Accepted || math.Abs(a.TotalEnergy-b.TotalEnergy) > 1e-12 {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestRunAllAcceptedWhenUnderloaded(t *testing.T) {
	// Huge interarrival: every job should fit easily.
	set, tr := testWorkload(t, trace.LessTight, 60, 500, 3)
	res, err := Run(baseConfig(set), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Fatalf("underloaded trace rejected %d requests", res.Rejected)
	}
	if res.DeadlineMisses != 0 {
		t.Fatal("deadline misses in underloaded trace")
	}
	// Idle platform: every job lands on its min-energy resource, so the
	// total is the sum of per-type minimum energies.
	var want float64
	for _, req := range tr.Requests {
		ty := set.Type(req.Type)
		minE := math.Inf(1)
		for r, e := range ty.Energy {
			if ty.ExecutableOn(r) {
				minE = math.Min(minE, e)
			}
		}
		want += minE
	}
	if math.Abs(res.TotalEnergy-want) > 1e-6 {
		t.Fatalf("energy %v, want %v (all at min)", res.TotalEnergy, want)
	}
}

func TestRunRejectsUnderOverload(t *testing.T) {
	// Tiny interarrival: the platform cannot keep up and must reject.
	set, tr := testWorkload(t, trace.VeryTight, 200, 0.3, 4)
	res, err := Run(baseConfig(set), tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected == 0 {
		t.Fatal("overloaded trace had no rejections")
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("%d deadline misses under overload", res.DeadlineMisses)
	}
}

func TestPredictionReducesRejection(t *testing.T) {
	// The paper's headline effect (Fig 2): with accurate prediction the
	// rejection percentage drops for tight deadlines. Aggregate over
	// several traces to avoid single-trace noise.
	set, _ := testWorkload(t, trace.VeryTight, 1, 1, 5)
	gcfg := trace.DefaultGenConfig(trace.VeryTight)
	gcfg.Length = 150
	gcfg.InterarrivalMean = 5
	gcfg.InterarrivalStd = 5.0 / 3
	r := rng.New(99)
	var rejOff, rejOn float64
	traces := 8
	for i := 0; i < traces; i++ {
		tr, err := trace.Generate(set, gcfg, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(set)
		off, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Predictor = oracle(t, tr, set, predict.OracleConfig{TypeAccuracy: 1, Seed: uint64(i)})
		on, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		rejOff += off.RejectionPct()
		rejOn += on.RejectionPct()
		if on.DeadlineMisses != 0 || off.DeadlineMisses != 0 {
			t.Fatal("deadline misses")
		}
	}
	rejOff /= float64(traces)
	rejOn /= float64(traces)
	if rejOn >= rejOff {
		t.Fatalf("prediction did not reduce rejection: off %.2f%% vs on %.2f%%", rejOff, rejOn)
	}
}

func TestOverheadHurts(t *testing.T) {
	// Fig 5's mechanism: a large decision latency eats slack and increases
	// rejection even with perfect prediction.
	set, _ := testWorkload(t, trace.VeryTight, 1, 1, 6)
	gcfg := trace.DefaultGenConfig(trace.VeryTight)
	gcfg.Length = 150
	gcfg.InterarrivalMean = 5
	gcfg.InterarrivalStd = 5.0 / 3
	r := rng.New(123)
	var lo, hi float64
	for i := 0; i < 6; i++ {
		tr, err := trace.Generate(set, gcfg, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		cfg := baseConfig(set)
		cfg.Predictor = oracle(t, tr, set, predict.OracleConfig{TypeAccuracy: 1, Seed: 1})
		a, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Predictor = oracle(t, tr, set, predict.OracleConfig{TypeAccuracy: 1, Overhead: 2.5, Seed: 1})
		b, err := Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		lo += a.RejectionPct()
		hi += b.RejectionPct()
	}
	if hi <= lo {
		t.Fatalf("overhead did not hurt: %.2f%% vs %.2f%%", lo/6, hi/6)
	}
}

func TestExactSolverNoMisses(t *testing.T) {
	set, tr := testWorkload(t, trace.VeryTight, 120, 4, 7)
	cfg := baseConfig(set)
	cfg.Solver = &exact.Optimal{}
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("exact RM missed %d deadlines", res.DeadlineMisses)
	}
	if res.Accepted == 0 {
		t.Fatal("exact RM accepted nothing")
	}
}

func TestExactAcceptsAtLeastAsManyPerDecision(t *testing.T) {
	// Not a strict global guarantee (the paper itself observes 88%, not
	// 100%), but on moderate load the exact RM should not be wildly worse.
	set, tr := testWorkload(t, trace.VeryTight, 150, 4, 8)
	h, err := Run(baseConfig(set), tr)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig(set)
	cfg.Solver = &exact.Optimal{}
	e, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if e.Accepted < h.Accepted-8 {
		t.Fatalf("exact accepted %d, heuristic %d", e.Accepted, h.Accepted)
	}
}

func TestMigrationAccounting(t *testing.T) {
	set, tr := testWorkload(t, trace.VeryTight, 250, 1.5, 9)
	res, err := Run(baseConfig(set), tr)
	if err != nil {
		t.Fatal(err)
	}
	var migs int
	for _, j := range res.Jobs {
		migs += j.Migrations
	}
	if migs != res.Migrations {
		t.Fatalf("per-job migrations %d != total %d", migs, res.Migrations)
	}
	if res.MigrationEnergy > res.TotalEnergy {
		t.Fatal("migration energy exceeds total")
	}
}

func TestChargeAlwaysAtLeastAsManyMigrations(t *testing.T) {
	set, tr := testWorkload(t, trace.VeryTight, 150, 2, 10)
	a := baseConfig(set)
	resA, err := Run(a, tr)
	if err != nil {
		t.Fatal(err)
	}
	b := baseConfig(set)
	b.Policy = sched.ChargeAlways
	resB, err := Run(b, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Under ChargeAlways every remap of a mapped job is charged, so the
	// charged-migration count can only grow for similar decisions; the
	// decisions themselves shift, so allow slack but catch inversions.
	if resB.Migrations+20 < resA.Migrations {
		t.Fatalf("ChargeAlways %d migrations, ChargeStartedOnly %d", resB.Migrations, resA.Migrations)
	}
	if resB.DeadlineMisses != 0 {
		t.Fatal("deadline misses under ChargeAlways")
	}
}

func TestMarkovPredictorRuns(t *testing.T) {
	set, tr := testWorkload(t, trace.VeryTight, 120, 4, 11)
	cfg := baseConfig(set)
	m, err := predict.NewMarkov(set.Len(), predict.NewEWMA(0.2), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Predictor = m
	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("online predictor led to %d deadline misses", res.DeadlineMisses)
	}
}

func TestConfigValidation(t *testing.T) {
	set, tr := testWorkload(t, trace.VeryTight, 10, 5, 12)
	bad := []engine.Config{
		{},
		{Platform: platform.Default()},
		{Platform: platform.Default(), TaskSet: set},
	}
	for i, cfg := range bad {
		if _, err := Run(cfg, tr); err == nil {
			t.Errorf("case %d: Run accepted invalid config", i)
		}
	}
	// Invalid trace.
	if _, err := Run(baseConfig(set), &trace.Trace{}); err == nil {
		t.Error("Run accepted empty trace")
	}
	// A nil trace is a named error on both entry points, and the
	// configuration is checked first.
	if _, err := Run(baseConfig(set), nil); !errors.Is(err, trace.ErrNilTrace) {
		t.Errorf("Run(nil trace) = %v, want %v", err, trace.ErrNilTrace)
	}
	if _, err := RunSharded(baseConfig(set), engine.ShardConfig{BatchWindow: 1}, nil); !errors.Is(err, trace.ErrNilTrace) {
		t.Errorf("RunSharded(nil trace) = %v, want %v", err, trace.ErrNilTrace)
	}
	if _, err := Run(engine.Config{}, nil); err == nil || errors.Is(err, trace.ErrNilTrace) {
		t.Errorf("Run(invalid config, nil trace) = %v, want the config error", err)
	}
}

func TestMakeSpanAndFinishTimes(t *testing.T) {
	set, tr := testWorkload(t, trace.LessTight, 40, 50, 13)
	res, err := Run(baseConfig(set), tr)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range res.Jobs {
		if !j.Accepted {
			continue
		}
		if j.FinishTime < j.Arrival {
			t.Fatalf("job %d finished before arriving", j.ID)
		}
		if j.FinishTime > res.MakeSpan+sched.Eps {
			t.Fatalf("job %d finished after makespan", j.ID)
		}
		if j.FinishTime > j.AbsDeadline+1e-6 {
			t.Fatalf("job %d: finish %.4f after deadline %.4f", j.ID, j.FinishTime, j.AbsDeadline)
		}
	}
}

func TestPropertyNoMissesAcrossSeeds(t *testing.T) {
	// The central soundness property over a spread of loads and engines.
	if testing.Short() {
		t.Skip("long property test")
	}
	set, _ := testWorkload(t, trace.VeryTight, 1, 1, 20)
	r := rng.New(500)
	for trial := 0; trial < 12; trial++ {
		gcfg := trace.DefaultGenConfig(trace.Tightness(trial % 2))
		gcfg.Length = 80
		gcfg.InterarrivalMean = []float64{0.5, 2, 6, 20}[trial%4]
		gcfg.InterarrivalStd = gcfg.InterarrivalMean / 3
		tr, err := trace.Generate(set, gcfg, r.Split())
		if err != nil {
			t.Fatal(err)
		}
		for _, pred := range []bool{false, true} {
			cfg := baseConfig(set)
			if trial%3 == 0 {
				cfg.Solver = &exact.Optimal{}
			}
			if pred {
				cfg.Predictor = oracle(t, tr, set, predict.OracleConfig{
					TypeAccuracy: 0.8, TimeError: 0.1, Seed: uint64(trial)})
			}
			res, err := Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.DeadlineMisses != 0 {
				t.Fatalf("trial %d pred=%v: %d deadline misses", trial, pred, res.DeadlineMisses)
			}
		}
	}
}
