package sim

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// normalizedEvents renders the tracer's ring as JSONL with every measured
// wall time (solver calls and the per-stage spend inside provenance
// records) cleared: the deterministic projection the goldens hold.
func normalizedEvents(t *testing.T, tracer *telemetry.Tracer) []byte {
	t.Helper()
	var out bytes.Buffer
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
		out.Write(line)
		out.WriteByte('\n')
	}
	return out.Bytes()
}

// checkGolden compares got with testdata/name, rewriting the file first
// under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s diverged (rerun with -update-golden if intended);\ngot %d bytes, want %d",
			path, len(got), len(want))
	}
}

// TestBatchEpochGolden pins the multi-request epoch path byte for byte:
// the golden-trace fixture (oracle prediction, provenance, tracer) run as
// one shard with a batch window wide enough that most epochs hold several
// arrivals. Both the Result (with the executed schedule) and the event
// stream are compared. Regenerate with:
// go test ./internal/sim -run Golden -update-golden
func TestBatchEpochGolden(t *testing.T) {
	cfg, tr := telemetryFixture(t)
	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	cfg.Tracer = tracer
	cfg.RecordExecution = true
	res, err := RunSharded(cfg, engine.ShardConfig{Shards: 1, BatchWindow: 1.5}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if tracer.Dropped() != 0 {
		t.Fatalf("tracer ring dropped %d events", tracer.Dropped())
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "epoch.golden.json", append(resJSON, '\n'))
	checkGolden(t, "epoch.golden.jsonl", normalizedEvents(t, tracer))
}

// TestShardedWindowZeroGolden pins one-by-one admission across four
// shards (routing plus per-shard solving) by its Result.
func TestShardedWindowZeroGolden(t *testing.T) {
	plat, set, tr := scaleWorkload(t, "16c2g", trace.VeryTight, 200, 1.0, 21)
	res, err := RunSharded(engine.Config{Platform: plat, TaskSet: set, RecordExecution: true},
		engine.ShardConfig{Shards: 4, NewSolver: func() core.Solver { return &core.Heuristic{} }}, tr)
	if err != nil {
		t.Fatal(err)
	}
	resJSON, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "shard4.golden.json", append(resJSON, '\n'))
}
