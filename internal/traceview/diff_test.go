package traceview

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sim"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// runTraced simulates the telemetry fixture workload (same seeds as the
// sim package's golden test) and returns both the simulator's result and
// the decoded event stream, so trace-derived numbers can be checked
// against ground truth.
func runTraced(t *testing.T, predictive bool) (*engine.Result, *Decoded) {
	t.Helper()
	plat := platform.Default()
	tcfg := task.DefaultGenConfig()
	tcfg.NumTypes = 20
	set, err := task.Generate(plat, tcfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(set, trace.GenConfig{
		Length:           30,
		InterarrivalMean: 0.8,
		InterarrivalStd:  0.25,
		Tightness:        trace.VeryTight,
	}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	cfg := engine.Config{
		Platform: plat,
		TaskSet:  set,
		Solver:   &core.Heuristic{},
	}
	if predictive {
		oracle, err := predict.NewOracle(tr, predict.OracleConfig{
			TypeAccuracy: 1,
			NumTypes:     set.Len(),
			Seed:         13,
		})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Predictor = oracle
	}
	var sink bytes.Buffer
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Sink: &sink})
	cfg.Tracer = tracer
	res, err := sim.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	d, err := Read(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Diags) != 0 {
		t.Fatalf("fixture trace has diagnostics: %v", d.Diags)
	}
	return res, d
}

// TestSummaryMatchesSimulator checks the numbers reconstructed purely from
// the trace agree with the simulator's own accounting, for both the
// predictive and the baseline run.
func TestSummaryMatchesSimulator(t *testing.T) {
	for _, tc := range []struct {
		name       string
		predictive bool
	}{
		{"baseline", false},
		{"predictive", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res, d := runTraced(t, tc.predictive)
			s := BuildTimeline(d).Summarize()
			if s.Requests != res.Requests {
				t.Errorf("requests: trace %d, sim %d", s.Requests, res.Requests)
			}
			if s.Admitted != res.Accepted || s.Rejected != res.Rejected {
				t.Errorf("decisions: trace %d/%d, sim %d/%d",
					s.Admitted, s.Rejected, res.Accepted, res.Rejected)
			}
			if math.Abs(s.RejectionPct-res.RejectionPct()) > 1e-9 {
				t.Errorf("rejection pct: trace %.6f, sim %.6f", s.RejectionPct, res.RejectionPct())
			}
			if math.Abs(s.TotalEnergy-res.TotalEnergy) > 1e-6 {
				t.Errorf("total energy: trace %.6f, sim %.6f", s.TotalEnergy, res.TotalEnergy)
			}
			if math.Abs(s.MigrationEnergy-res.MigrationEnergy) > 1e-6 {
				t.Errorf("migration energy: trace %.6f, sim %.6f", s.MigrationEnergy, res.MigrationEnergy)
			}
			if s.Migrations != res.Migrations {
				t.Errorf("migrations: trace %d, sim %d", s.Migrations, res.Migrations)
			}
			if s.DeadlineMisses != res.DeadlineMisses {
				t.Errorf("deadline misses: trace %d, sim %d", s.DeadlineMisses, res.DeadlineMisses)
			}
			if math.Abs(s.MakeSpan-res.MakeSpan) > 1e-6 {
				t.Errorf("makespan: trace %.6f, sim %.6f", s.MakeSpan, res.MakeSpan)
			}
			if vs := Audit(d, AuditOptions{Platform: platform.Default()}); len(vs) != 0 {
				t.Errorf("fixture run violates invariants:\n%v", vs)
			}
		})
	}
}

// TestDiffPredictiveVsBaseline runs the same workload with and without
// prediction and checks the diff's rejection-rate delta matches the
// simulator's — the paper's Fig 2 effect, recovered from traces alone.
func TestDiffPredictiveVsBaseline(t *testing.T) {
	resBase, dBase := runTraced(t, false)
	resPred, dPred := runTraced(t, true)
	base := BuildTimeline(dBase).Summarize()
	pred := BuildTimeline(dPred).Summarize()

	wantDelta := resPred.RejectionPct() - resBase.RejectionPct()
	gotDelta := pred.RejectionPct - base.RejectionPct
	if math.Abs(gotDelta-wantDelta) > 1e-9 {
		t.Errorf("rejection delta: trace %.6f, sim %.6f", gotDelta, wantDelta)
	}
	if pred.Admitted != resPred.Accepted || base.Admitted != resBase.Accepted {
		t.Errorf("admissions: trace %d/%d, sim %d/%d",
			pred.Admitted, base.Admitted, resPred.Accepted, resBase.Accepted)
	}
	if base.ResvPlanned != 0 || pred.ResvPlanned == 0 {
		t.Errorf("reservations: base %d (want 0), pred %d (want >0)",
			base.ResvPlanned, pred.ResvPlanned)
	}

	var out bytes.Buffer
	if err := WriteDiff(&out, "base", base, "pred", pred); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"rejection rate", "total energy", "resv planned", "delta (b-a)"} {
		if !strings.Contains(text, want) {
			t.Errorf("diff output missing %q:\n%s", want, text)
		}
	}
}
