//go:build !race

// Allocation budgets of the activation path. The race detector adds
// allocations of its own, so these run only without it (make allocs).

package engine

import (
	"testing"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// allocsPerDecision returns the allocations per decision while drive
// admits the second half of an n-request trace, the first half having
// warmed up every buffer (testing.AllocsPerRun's warm-up call drives it).
func allocsPerDecision(n int, drive func(lo, hi int)) float64 {
	half, calls := n/2, 0
	perCall := testing.AllocsPerRun(1, func() {
		drive(calls*half, (calls+1)*half)
		calls++
	})
	return perCall / float64(half)
}

// predictedVT builds an engine on the paper's 5c1g with the heuristic,
// its feasibility cache and the oracle predictor over a 2000-request VT
// trace with the given mean interarrival time.
func predictedVT(t *testing.T, interarrival float64) (*Engine, *trace.Trace) {
	t.Helper()
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(set, trace.GenConfig{
		Length:           2000,
		InterarrivalMean: interarrival,
		InterarrivalStd:  0.7,
		Tightness:        trace.VeryTight,
	}, rng.New(22))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := predict.NewOracle(tr, predict.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len(), Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Platform:  plat,
		TaskSet:   set,
		Solver:    &core.Heuristic{Cache: sched.NewFeasCache(0)},
		Predictor: oracle,
	})
	if err != nil {
		t.Fatal(err)
	}
	return e, tr
}

// TestActivateAllocBudget: a steady-state activation on the paper's 5c1g
// with the heuristic, its feasibility cache and the oracle predictor
// allocates little beyond the jobs it creates (the arriving job and the
// forecast's planning job).
func TestActivateAllocBudget(t *testing.T) {
	e, tr := predictedVT(t, 2.2)
	got := allocsPerDecision(tr.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			if _, err := e.Activate(i, tr.Requests[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("%.2f allocs per decision", got)
	const budget = 8
	if got > budget {
		t.Fatalf("Activate: %.2f allocs per decision, budget %d", got, budget)
	}
}

// TestSaturatedFallbackAllocBudget: at a saturated load most decisions
// take the admission fallback (Sec 4.3) — the prediction is dropped and
// the problem re-solved, admitted without it or rejected. Dropping into
// the engine's admission scratch and lifting the sub-decision or the
// rejection onto it add no allocation to that path beyond the repeated
// solve's own mapping; the failed solve returns none. A fallback that
// copies the problem per dropped prediction and lifts through a map
// measured 6.97 allocs per decision here; the scratch-backed one 3.86,
// and 2.33 once the failed solve stopped copying its partial mapping.
func TestSaturatedFallbackAllocBudget(t *testing.T) {
	e, tr := predictedVT(t, 1.0)
	fallbacks, decisions := 0, 0
	got := allocsPerDecision(tr.Len(), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			out, err := e.Activate(i, tr.Requests[i])
			if err != nil {
				t.Fatal(err)
			}
			if !out.Accepted || out.Reason == telemetry.ReasonPredictionDropped {
				fallbacks++
			}
			decisions++
		}
	})
	share := float64(fallbacks) / float64(decisions)
	t.Logf("%.2f allocs per decision, %.0f%% through the fallback", got, 100*share)
	if share < 0.5 {
		t.Fatalf("only %.0f%% of decisions took the fallback: the load is not saturated", 100*share)
	}
	const budget = 3
	if got > budget {
		t.Fatalf("Activate at saturation: %.2f allocs per decision, budget %d", got, budget)
	}
}

// TestShardedEpochAllocBudget: batch epochs on the committed 64c8g
// fixture in two shards stay within a per-decision budget, the epoch's
// routing, goroutines and outcome slices included.
func TestShardedEpochAllocBudget(t *testing.T) {
	set, tr := scaleFixture(t)
	s, err := NewSharded(Config{Platform: set.Platform, TaskSet: set}, ShardConfig{
		Shards:    2,
		NewSolver: func() core.Solver { return &core.Heuristic{Cache: sched.NewFeasCache(0)} },
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := tr.Requests
	got := allocsPerDecision(len(reqs), func(lo, hi int) {
		driveEpochs(t, s, reqs, lo, hi, 1, nil)
	})
	t.Logf("%.2f allocs per decision", got)
	const budget = 3.25
	if got > budget {
		t.Fatalf("sharded ActivateEpoch: %.2f allocs per decision, budget %.2f", got, budget)
	}
}

// TestStateProbeAllocBudget: publishing a state sample allocates nothing
// once the resource buffer is warm, on a bare engine and merged over four
// shards (a server probes after every decision).
func TestStateProbeAllocBudget(t *testing.T) {
	e, tr := predictedVT(t, 2.2)
	e.cfg.StateProbe = func(StateSample) {}
	for i, req := range tr.Requests[:200] {
		if _, err := e.Activate(i, req); err != nil {
			t.Fatal(err)
		}
	}
	tr4, build := shardFixture(t, "16c2g", 4, 200, 0.6, 65)
	s := build(func(StateSample) {})
	for i, req := range tr4.Requests {
		if _, err := s.Activate(i, req); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		e.probe(199)
		s.probeGlobal(199)
	}); got != 0 {
		t.Fatalf("state probes: %.2f allocs per sample pair, budget 0", got)
	}
}
