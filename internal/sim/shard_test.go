package sim

import (
	"bytes"
	"encoding/json"
	"regexp"
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// scaleWorkload generates a task set and trace sized to an arbitrary
// platform spec (the shard tests run on larger machines than Default).
func scaleWorkload(t *testing.T, spec string, tight trace.Tightness, length int, meanIA float64, seed uint64) (*platform.Platform, *task.Set, *trace.Trace) {
	t.Helper()
	plat, err := platform.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(seed))
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
	return plat, set, tr
}

// runUnsharded is the one-shard differentials' reference side: a loop
// of its own over a bare engine.New, so the comparison keeps two code
// paths although Run is RunSharded at one shard.
func runUnsharded(t *testing.T, cfg engine.Config, tr *trace.Trace) *engine.Result {
	t.Helper()
	eng, err := engine.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range tr.Requests {
		if _, err := eng.Activate(i, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	return eng.Finalize()
}

// TestShardedOneShardMatchesUnsharded pins the scale-out engine's
// degenerate configuration to the paper path: one shard, zero batch
// window, same trace — the Result JSON and the JSONL telemetry stream
// must match a bare Engine's activation loop to the byte (only the
// measured wall_ns of each solver call is real time and is normalised
// away).
func TestShardedOneShardMatchesUnsharded(t *testing.T) {
	set, tr := testWorkload(t, trace.VeryTight, 150, 4, 11)

	var plainTrace bytes.Buffer
	plainCfg := baseConfig(set)
	plainCfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Sink: &plainTrace})
	plainRes := runUnsharded(t, plainCfg, tr)
	if err := plainCfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	var shardTrace bytes.Buffer
	shardCfg := baseConfig(set)
	shardCfg.Solver = nil // built through the factory, as a sharded driver would
	shardCfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Sink: &shardTrace})
	shardRes, err := RunSharded(shardCfg, engine.ShardConfig{
		Shards:    1,
		NewSolver: func() core.Solver { return &core.Heuristic{} },
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := shardCfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	plainJSON, _ := json.Marshal(plainRes)
	shardJSON, _ := json.Marshal(shardRes)
	if !bytes.Equal(plainJSON, shardJSON) {
		t.Fatalf("results diverge:\nplain:   %s\nsharded: %s", plainJSON, shardJSON)
	}
	wallNS := regexp.MustCompile(`"wall_ns":\d+`)
	plainEvents := wallNS.ReplaceAll(plainTrace.Bytes(), []byte(`"wall_ns":0`))
	shardEvents := wallNS.ReplaceAll(shardTrace.Bytes(), []byte(`"wall_ns":0`))
	if !bytes.Equal(plainEvents, shardEvents) {
		t.Fatalf("telemetry streams diverge (%d vs %d bytes)", len(plainEvents), len(shardEvents))
	}
}

// TestShardedOneShardMatchesUnshardedGolden runs the differential on
// the golden-trace fixture workload — the full-feature configuration
// (budgeted solver chain, oracle predictor, provenance, tracer) that a
// sharded engine refuses at S > 1 but must carry untouched at S = 1.
// Result JSON and the JSONL telemetry stream must match a bare Engine's
// activation loop to the byte (wall_ns normalised, as in the golden
// test).
func TestShardedOneShardMatchesUnshardedGolden(t *testing.T) {
	var plainTrace bytes.Buffer
	plainCfg, tr := telemetryFixture(t)
	plainCfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Sink: &plainTrace})
	plainRes := runUnsharded(t, plainCfg, tr)
	if err := plainCfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	var shardTrace bytes.Buffer
	shardCfg, _ := telemetryFixture(t) // fresh solver chain, same workload
	shardCfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Sink: &shardTrace})
	shardRes, err := RunSharded(shardCfg, engine.ShardConfig{Shards: 1}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := shardCfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	plainJSON, _ := json.Marshal(plainRes)
	shardJSON, _ := json.Marshal(shardRes)
	if !bytes.Equal(plainJSON, shardJSON) {
		t.Fatalf("results diverge:\nplain:   %s\nsharded: %s", plainJSON, shardJSON)
	}
	wallNS := regexp.MustCompile(`"wall_ns":\d+`)
	plainEvents := wallNS.ReplaceAll(plainTrace.Bytes(), []byte(`"wall_ns":0`))
	shardEvents := wallNS.ReplaceAll(shardTrace.Bytes(), []byte(`"wall_ns":0`))
	if !bytes.Equal(plainEvents, shardEvents) {
		t.Fatalf("telemetry streams diverge (%d vs %d bytes)", len(plainEvents), len(shardEvents))
	}
}

// TestBatchEpochWindowZeroMatchesOneByOne: a singleton epoch closing at
// its own arrival is exactly one Activate call — driving every request
// through ActivateEpoch that way must be byte-identical to the window-0
// one-by-one path, for any shard count (here 4, so routing too). Both
// sides run the one activation path; TestShardedWindowZeroGolden pins
// what that path decides.
func TestBatchEpochWindowZeroMatchesOneByOne(t *testing.T) {
	plat, set, tr := scaleWorkload(t, "16c2g", trace.VeryTight, 200, 1.0, 21)
	newCfg := func() engine.Config {
		return engine.Config{Platform: plat, TaskSet: set}
	}
	sc := engine.ShardConfig{Shards: 4, NewSolver: func() core.Solver { return &core.Heuristic{} }}

	oneByOne, err := RunSharded(newCfg(), sc, tr)
	if err != nil {
		t.Fatal(err)
	}
	// Same engine, but drive it through ActivateEpoch with singleton
	// epochs closing at each arrival (what a zero batch window means).
	eng, err := engine.NewSharded(newCfg(), sc)
	if err != nil {
		t.Fatal(err)
	}
	for i, req := range tr.Requests {
		if _, err := eng.ActivateEpoch(i, tr.Requests[i:i+1], req.Arrival); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Drain(); err != nil {
		t.Fatal(err)
	}
	epochs := eng.Finalize()

	aJSON, _ := json.Marshal(oneByOne)
	bJSON, _ := json.Marshal(epochs)
	if !bytes.Equal(aJSON, bJSON) {
		t.Fatalf("singleton epochs diverge from one-by-one:\n%s\n%s", aJSON, bJSON)
	}
	if oneByOne.Requests != 200 || oneByOne.Accepted+oneByOne.Rejected != 200 {
		t.Fatalf("count mismatch: %+v", oneByOne)
	}
	if oneByOne.DeadlineMisses != 0 {
		t.Fatalf("%d accepted jobs missed deadlines", oneByOne.DeadlineMisses)
	}
}

// TestShardedRunDeterministic: concurrency inside an epoch must not leak
// into outcomes — two sharded batched runs over the same trace produce
// byte-identical Results.
func TestShardedRunDeterministic(t *testing.T) {
	plat, set, tr := scaleWorkload(t, "64c8g", trace.VeryTight, 300, 0.5, 31)
	sc := engine.ShardConfig{
		Shards:      4,
		BatchWindow: 2.0,
		NewSolver:   func() core.Solver { return &core.Heuristic{} },
	}
	run := func() []byte {
		res, err := RunSharded(engine.Config{Platform: plat, TaskSet: set}, sc, tr)
		if err != nil {
			t.Fatal(err)
		}
		if res.Requests != 300 || res.Accepted+res.Rejected != 300 {
			t.Fatalf("count mismatch: %+v", res)
		}
		if res.DeadlineMisses != 0 {
			t.Fatalf("%d accepted jobs missed deadlines", res.DeadlineMisses)
		}
		if res.Accepted == 0 {
			t.Fatal("nothing accepted")
		}
		b, _ := json.Marshal(res)
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("sharded batched run not deterministic:\n%s\n%s", a, b)
	}
}

// TestShardedBatchingTradesDecisions: batching defers decisions to the
// epoch close, so it must still produce a sound run (no misses) and
// account for every request; acceptance may differ from one-by-one.
func TestShardedBatchingTradesDecisions(t *testing.T) {
	plat, set, tr := scaleWorkload(t, "32c4g", trace.VeryTight, 250, 0.8, 41)
	newSC := func(window float64) engine.ShardConfig {
		return engine.ShardConfig{Shards: 4, BatchWindow: window, NewSolver: func() core.Solver { return &core.Heuristic{} }}
	}
	for _, window := range []float64{0, 1.5, 5} {
		res, err := RunSharded(engine.Config{Platform: plat, TaskSet: set}, newSC(window), tr)
		if err != nil {
			t.Fatalf("window %v: %v", window, err)
		}
		if res.Requests != 250 || res.Accepted+res.Rejected != 250 {
			t.Fatalf("window %v: count mismatch: %+v", window, res)
		}
		if res.DeadlineMisses != 0 {
			t.Fatalf("window %v: %d accepted jobs missed deadlines", window, res.DeadlineMisses)
		}
	}
}

// TestShardedRejectsGlobalFeatures: configurations whose state is
// inherently global fail loudly instead of getting per-shard semantics.
func TestShardedRejectsGlobalFeatures(t *testing.T) {
	plat, set, tr := scaleWorkload(t, "16c2g", trace.VeryTight, 10, 5, 51)
	sc := engine.ShardConfig{Shards: 4, NewSolver: func() core.Solver { return &core.Heuristic{} }}

	cfg := engine.Config{Platform: plat, TaskSet: set}
	cfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Sink: &bytes.Buffer{}})
	if _, err := RunSharded(cfg, sc, tr); err == nil {
		t.Fatal("tracer accepted on a multi-shard engine")
	}
	cfg = engine.Config{Platform: plat, TaskSet: set, Provenance: true}
	if _, err := RunSharded(cfg, sc, tr); err == nil {
		t.Fatal("provenance accepted on a multi-shard engine")
	}
	cfg = engine.Config{Platform: plat, TaskSet: set}
	if _, err := RunSharded(cfg, engine.ShardConfig{Shards: 4}, tr); err == nil {
		t.Fatal("missing NewSolver accepted on a multi-shard engine")
	}
}
