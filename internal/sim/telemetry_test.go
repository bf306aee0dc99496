package sim

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// telemetryFixture builds a small deterministic simulation: seeded task
// set and trace, perfect oracle prediction, and enough load that the event
// stream contains arrivals, solver latencies, admissions, rejections,
// migrations, and reservations. The solver is a single-stage resilience
// chain around Algorithm 1 with provenance on, so every decision event
// carries both candidate verdicts and stage hops (behaviorally identical
// to the bare heuristic).
func telemetryFixture(t testing.TB) (engine.Config, *trace.Trace) {
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
	oracle, err := predict.NewOracle(tr, predict.OracleConfig{
		TypeAccuracy: 1,
		NumTypes:     set.Len(),
		Seed:         13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine.Config{
		Platform: plat,
		TaskSet:  set,
		Solver: &core.BudgetedSolver{
			Stages: []core.Stage{{Name: "heuristic", Solver: &core.Heuristic{}}},
		},
		Predictor:  oracle,
		Provenance: true,
	}, tr
}

// TestTelemetryGoldenEvents locks the JSONL event stream of the fixture
// trace: every line must unmarshal into the typed schema, the stream must
// contain the headline event types, and — after clearing the
// nondeterministic wall-clock field — it must match the golden file
// byte-for-byte. Regenerate with: go test ./internal/sim -run Golden -update-golden
func TestTelemetryGoldenEvents(t *testing.T) {
	cfg, tr := telemetryFixture(t)
	var sink bytes.Buffer
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Sink: &sink})
	reg := telemetry.NewRegistry()
	cfg.Tracer = tracer
	cfg.Metrics = reg

	res, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every sink line unmarshals into the typed event schema.
	lines := bytes.Split(bytes.TrimSpace(sink.Bytes()), []byte("\n"))
	seen := map[telemetry.EventType]int{}
	for i, line := range lines {
		var e telemetry.Event
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatalf("line %d %q: %v", i, line, err)
		}
		if e.Seq != int64(i) {
			t.Fatalf("line %d: seq %d", i, e.Seq)
		}
		seen[e.Type]++
	}
	for _, want := range []telemetry.EventType{
		telemetry.EvArrival, telemetry.EvPrediction,
		telemetry.EvSolverInvoked, telemetry.EvSolverReturned,
		telemetry.EvAdmit, telemetry.EvReject, telemetry.EvMigration,
		telemetry.EvReservationPlanned, telemetry.EvReservationHonoured,
		telemetry.EvJobStart, telemetry.EvJobFinish, telemetry.EvJobPreempt,
		telemetry.EvDecision,
	} {
		if seen[want] == 0 {
			t.Errorf("event type %q missing from stream (have %v)", want, seen)
		}
	}
	if seen[telemetry.EvArrival] != tr.Len() {
		t.Errorf("arrivals: got %d, want %d", seen[telemetry.EvArrival], tr.Len())
	}

	// The ring buffer holds the same events as the sink (no drops here).
	if tracer.Dropped() != 0 || tracer.Len() != len(lines) {
		t.Fatalf("ring: %d events, %d dropped; sink has %d", tracer.Len(), tracer.Dropped(), len(lines))
	}

	// Result.Telemetry surfaces the populated solver-latency histogram.
	if res.Telemetry == nil {
		t.Fatal("Result.Telemetry not set")
	}
	lat := res.Telemetry.Histograms["sim.solver_seconds"]
	if lat.Count != int64(tr.Len()) {
		t.Fatalf("solver latency observations: got %d, want %d", lat.Count, tr.Len())
	}
	if res.Telemetry.Counters["sim.accepted"] != int64(res.Accepted) ||
		res.Telemetry.Counters["sim.rejected"] != int64(res.Rejected) ||
		res.Telemetry.Counters["sim.migrations"] != int64(res.Migrations) {
		t.Fatalf("counter/result mismatch: %+v vs %+v", res.Telemetry.Counters, res)
	}

	// Golden comparison on the deterministic projection (WallNs cleared,
	// including the nested per-stage wall spend of provenance records).
	var normalized bytes.Buffer
	for _, e := range tracer.Events() {
		e.WallNs = 0
		if e.Prov != nil {
			for i := range e.Prov.Stages {
				e.Prov.Stages[i].WallNs = 0
			}
		}
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		normalized.Write(line)
		normalized.WriteByte('\n')
	}
	golden := filepath.Join("testdata", "events.golden.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, normalized.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(normalized.Bytes(), want) {
		t.Fatalf("event stream diverged from %s (rerun with -update-golden if intended);\ngot %d bytes, want %d",
			golden, normalized.Len(), len(want))
	}
}

// TestTelemetryDisabledIsInert checks a run without telemetry attaches
// nothing and behaves identically to an instrumented run.
func TestTelemetryDisabledIsInert(t *testing.T) {
	cfg, tr := telemetryFixture(t)
	plain, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Telemetry != nil {
		t.Fatal("Telemetry must be nil without a registry")
	}
	cfg2, tr2 := telemetryFixture(t)
	cfg2.Tracer = telemetry.NewTracer(telemetry.TracerOptions{})
	cfg2.Metrics = telemetry.NewRegistry()
	traced, err := Run(cfg2, tr2)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Accepted != traced.Accepted || plain.Rejected != traced.Rejected ||
		plain.TotalEnergy != traced.TotalEnergy || plain.Migrations != traced.Migrations {
		t.Fatalf("telemetry changed simulation outcomes: %+v vs %+v", plain, traced)
	}
}
