package faultinject

import (
	"bytes"
	"encoding/json"
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
	"predrm/internal/traceview"
)

func TestParsePlan(t *testing.T) {
	p, err := ParsePlan("seed=7,solver-error=0.2,latency-rate=0.1,latency=0.5,pred-outage=0.1,pred-corrupt=0.05,corrupt-shift=0.4")
	if err != nil {
		t.Fatal(err)
	}
	want := Plan{Seed: 7, SolverErrorRate: 0.2, LatencyRate: 0.1, LatencySpike: 0.5,
		PredictorOutageRate: 0.1, PredictorCorruptRate: 0.05, CorruptShift: 0.4}
	if p != want {
		t.Fatalf("parsed %+v, want %+v", p, want)
	}
	if p.IsZero() {
		t.Fatal("non-trivial plan reported zero")
	}

	empty, err := ParsePlan("")
	if err != nil || !empty.IsZero() {
		t.Fatalf("empty spec: %+v, %v", empty, err)
	}

	for _, bad := range []string{
		"frobnicate=1",          // unknown key
		"solver-error",          // not key=value
		"solver-error=lots",     // not a number
		"solver-error=1.5",      // rate out of range
		"latency-rate=0.1",      // rate without magnitude
		"pred-corrupt=0.1",      // rate without shift
		"latency=-1",            // negative magnitude
		"seed=-3",               // seed is unsigned
		"solver-error=0.2,seed", // malformed tail
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

func TestRollDeterministicAndStreamIndependent(t *testing.T) {
	p := &Plan{Seed: 42}
	q := &Plan{Seed: 42}
	for key := uint64(0); key < 64; key++ {
		if p.roll(streamSolver, key) != q.roll(streamSolver, key) {
			t.Fatalf("key %d: roll not deterministic", key)
		}
	}
	// Distinct streams must not be correlated: count agreement of
	// threshold crossings at 0.5 — identical streams would agree always.
	agree := 0
	const n = 256
	for key := uint64(0); key < n; key++ {
		a := p.roll(streamSolver, key) < 0.5
		b := p.roll(streamLatency, key) < 0.5
		if a == b {
			agree++
		}
	}
	if agree == n {
		t.Fatal("solver and latency streams are identical")
	}
	// And a different seed must change the sites.
	r := &Plan{Seed: 43}
	same := 0
	for key := uint64(0); key < n; key++ {
		if p.roll(streamSolver, key) == r.roll(streamSolver, key) {
			same++
		}
	}
	if same == n {
		t.Fatal("seed does not influence rolls")
	}
}

// faultFixture builds a small deterministic simulation with the hardened
// chain: a faulty exact primary falling back to the heuristic, predictor
// and latency faults active.
func faultFixture(t testing.TB, plan *Plan, tracer *telemetry.Tracer, reg *telemetry.Registry) (engine.Config, *trace.Trace) {
	t.Helper()
	plat := platform.Default()
	tcfg := task.DefaultGenConfig()
	tcfg.NumTypes = 20
	set, err := task.Generate(plat, tcfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(set, trace.GenConfig{
		Length:           40,
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
	cfg := engine.Config{
		Platform: plat,
		TaskSet:  set,
		Solver: &core.BudgetedSolver{
			Stages: []core.Stage{
				{Name: "primary", Solver: plan.Solver(&core.Heuristic{}, tracer)},
				{Name: "heuristic", Solver: &core.Heuristic{}},
			},
			Tracer: tracer,
		},
		Predictor:    plan.Predictor(oracle, tracer, reg),
		OverheadHook: plan.Hook(tracer, reg),
		Tracer:       tracer,
		Metrics:      reg,
	}
	return cfg, tr
}

func heavyPlan() *Plan {
	return &Plan{
		Seed:                 5,
		SolverErrorRate:      0.3,
		LatencyRate:          0.2,
		LatencySpike:         0.1,
		PredictorOutageRate:  0.2,
		PredictorCorruptRate: 0.2,
		CorruptShift:         0.4,
	}
}

// TestSimDeterminism locks the headline resilience property: two runs under
// the same fault-plan seed produce byte-identical results (metrics are
// excluded — histogram contents include nondeterministic wall-clock data).
func TestSimDeterminism(t *testing.T) {
	run := func() []byte {
		cfg, tr := faultFixture(t, heavyPlan(), nil, nil)
		cfg.Metrics = nil
		res, err := sim.Run(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		res.Telemetry = nil
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same fault-plan seed produced different results")
	}

	// A different plan seed must actually change the run (otherwise the
	// determinism above is vacuous).
	cfg, tr := faultFixture(t, &Plan{Seed: 99, SolverErrorRate: 0.3}, nil, nil)
	cfg.Metrics = nil
	res, err := sim.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	res.Telemetry = nil
	c, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, c) {
		t.Fatal("plan seed has no effect on the run")
	}
}

// TestEndToEndTraceAudits drives a faulted, hardened simulation with full
// tracing and checks the whole observability pipeline: the JSONL stream
// decodes without unknown-type diagnostics, the replay auditor finds no
// violations, and the degraded-mode events actually appear.
func TestEndToEndTraceAudits(t *testing.T) {
	var sink bytes.Buffer
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Sink: &sink})
	reg := telemetry.NewRegistry()
	cfg, tr := faultFixture(t, heavyPlan(), tracer, reg)

	res, err := sim.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("%d deadline misses under faults", res.DeadlineMisses)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	d, err := traceview.Read(strings.NewReader(sink.String()))
	if err != nil {
		t.Fatal(err)
	}
	for _, diag := range d.Diags {
		if diag.Kind == traceview.DiagUnknownEventType {
			t.Fatalf("unknown event type in stream: %v", diag)
		}
	}
	var fallbacks, faults int
	for _, e := range d.Events {
		switch e.Type {
		case telemetry.EvSolverFallback:
			fallbacks++
		case telemetry.EvFaultInjected:
			faults++
		}
	}
	if fallbacks == 0 || faults == 0 {
		t.Fatalf("degraded-mode events missing: %d fallbacks, %d faults", fallbacks, faults)
	}
	if vs := traceview.Audit(d, traceview.AuditOptions{Platform: cfg.Platform}); len(vs) > 0 {
		t.Fatalf("audit violations under graceful degradation: %v", vs)
	}

	// The metrics snapshot carries the degraded-mode accounting.
	snap := reg.Snapshot()
	if snap.Counters["faultinject.solver_errors"] == 0 {
		t.Fatal("no solver faults recorded")
	}
	if snap.Counters["resilience.fallbacks"] == 0 {
		t.Fatal("no fallbacks recorded")
	}
	if _, ok := snap.Histograms["resilience.fallback_depth"]; !ok {
		t.Fatal("fallback depth histogram missing")
	}
}

// TestFaultySolverWithoutChain proves prompt, coordinate-bearing error
// propagation when a failing solver is wired bare (no resilience chain).
func TestFaultySolverWithoutChain(t *testing.T) {
	plan := &Plan{Seed: 5, SolverErrorRate: 1} // fail the first activation
	cfg, tr := faultFixture(t, &Plan{}, nil, nil)
	cfg.Solver = plan.Solver(&core.Heuristic{}, nil)
	_, err := sim.Run(cfg, tr)
	if err == nil {
		t.Fatal("bare faulty solver must abort the run")
	}
	if !strings.Contains(err.Error(), "request 0") {
		t.Fatalf("error lacks request coordinates: %v", err)
	}
}

func TestOrphanFallbackViolation(t *testing.T) {
	// A solver_fallback with no solver_invoked for its request must be
	// flagged by the auditor.
	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	e := telemetry.NewEvent(1, telemetry.EvSolverFallback)
	e.Req = 3
	e.Value = 1
	e.Reason = "error"
	tracer.Emit(e)
	var sink bytes.Buffer
	enc := json.NewEncoder(&sink)
	for _, ev := range tracer.Events() {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	d, err := traceview.Read(&sink)
	if err != nil {
		t.Fatal(err)
	}
	vs := traceview.Audit(d, traceview.AuditOptions{})
	found := false
	for _, v := range vs {
		if v.Kind == traceview.VOrphanFallback && v.Req == 3 {
			found = true
		}
	}
	if !found {
		t.Fatalf("orphan fallback not flagged: %v", vs)
	}
}
