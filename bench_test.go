package predrm_test

// One benchmark per table/figure of the paper's evaluation (see DESIGN.md
// per-experiment index). Each benchmark runs the corresponding experiment
// harness at a reduced but non-trivial scale and reports, besides ns/op,
// the headline metric of that experiment as custom benchmark units so a
// -bench run regenerates the paper's numbers in one pass:
//
//	go test -bench=. -benchmem
//
// Scale up via cmd/experiments for publication-quality statistics.

import (
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/experiments"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sim"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// benchConfig is small enough for a -bench sweep on a laptop while still
// exercising every code path at realistic load.
func benchConfig() experiments.Config {
	cfg := experiments.DefaultConfig()
	cfg.Traces = 4
	cfg.TraceLen = 120
	return cfg
}

// BenchmarkMotivational regenerates Table 1 / Fig 1 (experiment T1).
func BenchmarkMotivational(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Motivational()
		if err != nil {
			b.Fatal(err)
		}
		if !r.PredMapsCPU1 {
			b.Fatal("scenario (b) not reproduced")
		}
	}
}

// BenchmarkMILPvsHeuristic regenerates the Sec 5.2 comparison (E52).
func BenchmarkMILPvsHeuristic(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.MILPvsHeuristic(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RejExact.Mean, "milp-rej%")
		b.ReportMetric(r.RejHeuristic.Mean, "heur-rej%")
		b.ReportMetric(100*r.ExactWinRate, "milp-win%")
	}
}

func benchImpact(b *testing.B, tight trace.Tightness, energy bool) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.PredictionImpact(cfg, tight)
		if err != nil {
			b.Fatal(err)
		}
		if energy {
			b.ReportMetric(r.NormalizedEnergy[0], "milp-on")
			b.ReportMetric(r.NormalizedEnergy[1], "milp-off")
			b.ReportMetric(r.NormalizedEnergy[2], "heur-on")
			b.ReportMetric(r.NormalizedEnergy[3], "heur-off")
		} else {
			b.ReportMetric(r.Rejection[0].Mean, "milp-on-rej%")
			b.ReportMetric(r.Rejection[1].Mean, "milp-off-rej%")
			b.ReportMetric(r.Rejection[2].Mean, "heur-on-rej%")
			b.ReportMetric(r.Rejection[3].Mean, "heur-off-rej%")
		}
	}
}

// BenchmarkFig2a regenerates Fig 2a: rejection %, LT group.
func BenchmarkFig2a(b *testing.B) { benchImpact(b, trace.LessTight, false) }

// BenchmarkFig2b regenerates Fig 2b: rejection %, VT group.
func BenchmarkFig2b(b *testing.B) { benchImpact(b, trace.VeryTight, false) }

// BenchmarkFig3a regenerates Fig 3a: normalized energy, VT group.
func BenchmarkFig3a(b *testing.B) { benchImpact(b, trace.VeryTight, true) }

// BenchmarkFig3b regenerates Fig 3b: normalized energy, LT group.
func BenchmarkFig3b(b *testing.B) { benchImpact(b, trace.LessTight, true) }

// BenchmarkFig4a regenerates Fig 4a: rejection vs task-type accuracy (VT).
func BenchmarkFig4a(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4a(cfg, []float64{0.25, 0.5, 0.75, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RejHeuristic[0].Mean, "heur-rej%@0.25")
		b.ReportMetric(r.RejHeuristic[3].Mean, "heur-rej%@1.00")
		b.ReportMetric(r.OffHeuristic.Mean, "heur-rej%@off")
	}
}

// BenchmarkFig4b regenerates Fig 4b: rejection vs arrival-time accuracy (VT).
func BenchmarkFig4b(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig4b(cfg, []float64{0.25, 0.5, 0.75, 1.0})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RejHeuristic[0].Mean, "heur-rej%@0.25")
		b.ReportMetric(r.RejHeuristic[3].Mean, "heur-rej%@1.00")
		b.ReportMetric(r.OffHeuristic.Mean, "heur-rej%@off")
	}
}

// BenchmarkFig5 regenerates Fig 5: rejection vs prediction overhead (VT).
func BenchmarkFig5(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.Fig5(cfg, []float64{0, 0.08, 0.5})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.RejHeuristic[0].Mean, "heur-rej%@0")
		b.ReportMetric(r.RejHeuristic[2].Mean, "heur-rej%@50")
		b.ReportMetric(r.OffHeuristic.Mean, "heur-rej%@off")
	}
}

// BenchmarkAblationRegret regenerates ablation A1 (max-regret vs greedy).
func BenchmarkAblationRegret(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationRegret(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rej[0].Mean, "regret-rej%")
		b.ReportMetric(r.Rej[1].Mean, "greedy-rej%")
	}
}

// BenchmarkAblationMigration regenerates ablation A2 (migration charging).
func BenchmarkAblationMigration(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.AblationMigration(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rej[0].Mean, "started-only-rej%")
		b.ReportMetric(r.Rej[1].Mean, "always-rej%")
	}
}

// BenchmarkLookahead regenerates extension X1 (forecast-horizon sweep).
func BenchmarkLookahead(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.LookaheadSweep(cfg, []int{1, 3})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rej[0].Mean, "off-rej%")
		b.ReportMetric(r.Rej[1].Mean, "k1-rej%")
		b.ReportMetric(r.Rej[2].Mean, "k3-rej%")
	}
}

// benchSim runs one seeded simulation per iteration: 300 VT requests with
// perfect prediction under the heuristic engine. With instrument=false the
// telemetry hooks take their no-op path (nil tracer and registry); with
// instrument=true every event is ring-buffered and every metric recorded.
// Comparing BenchmarkRun against BenchmarkRunWithTelemetry bounds the cost
// of full instrumentation; BenchmarkRun itself exercises the disabled path,
// whose only cost over uninstrumented code is nil checks (<5% of sim.Run).
func benchSim(b *testing.B, instrument bool) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(21))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := trace.Generate(set, trace.GenConfig{
		Length:           300,
		InterarrivalMean: 2.2,
		InterarrivalStd:  0.7,
		Tightness:        trace.VeryTight,
	}, rng.New(22))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		oracle, err := predict.NewOracle(tr, predict.OracleConfig{
			TypeAccuracy: 1,
			NumTypes:     set.Len(),
			Seed:         23,
		})
		if err != nil {
			b.Fatal(err)
		}
		cfg := engine.Config{
			Platform:  plat,
			TaskSet:   set,
			Solver:    &core.Heuristic{},
			Predictor: oracle,
		}
		if instrument {
			cfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{})
			cfg.Metrics = telemetry.NewRegistry()
		}
		res, err := sim.Run(cfg, tr)
		if err != nil {
			b.Fatal(err)
		}
		if res.Requests != tr.Len() {
			b.Fatalf("requests: got %d, want %d", res.Requests, tr.Len())
		}
	}
}

// BenchmarkRun measures sim.Run with telemetry disabled (the no-op path).
func BenchmarkRun(b *testing.B) { benchSim(b, false) }

// BenchmarkRunWithTelemetry measures sim.Run with a ring tracer and a
// metrics registry attached — the full instrumentation cost.
func BenchmarkRunWithTelemetry(b *testing.B) { benchSim(b, true) }

// BenchmarkOnlinePredictors regenerates ablation A3.
func BenchmarkOnlinePredictors(b *testing.B) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		r, err := experiments.OnlinePredictors(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(r.Rej[0].Mean, "off-rej%")
		b.ReportMetric(r.Rej[1].Mean, "oracle-rej%")
		b.ReportMetric(r.Rej[2].Mean, "markov-rej%")
	}
}
