package experiments

import (
	"bytes"
	"encoding/json"
	"reflect"
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

// TestWarmStartMatchesCold is the end-to-end decision-neutrality contract:
// warm-start solving is a speed optimisation, never a behaviour change. The
// same experiment grid — both engines, prediction on, both tightness
// groups — must produce identical results from the warm solvers the
// experiments build and from cold ones without warm state: identical
// rejection rates, energies, acceptance counts, and miss counts on every
// (trace, variant) cell.
func TestWarmStartMatchesCold(t *testing.T) {
	// The identity claim covers completed solves (DESIGN.md §10): a
	// binding node budget truncates warm and cold searches at different
	// points by design, so give the exact engine room to finish.
	const nodeLimit = 50_000_000
	warmVariants := []variant{
		{name: "MILP", engine: engineExact, predict: accurate()},
		{name: "heuristic", engine: engineHeuristic, predict: accurate()},
		{name: "greedy", engine: engineGreedy, predict: accurate()},
	}
	coldVariants := []variant{
		{name: "MILP", predict: accurate(), solver: func(*task.Set) core.Solver {
			return &exact.Optimal{NodeLimit: nodeLimit}
		}},
		{name: "heuristic", predict: accurate(), solver: func(*task.Set) core.Solver {
			return &core.Heuristic{}
		}},
		{name: "greedy", predict: accurate(), solver: func(*task.Set) core.Solver {
			return &core.Heuristic{Greedy: true}
		}},
	}
	run := func(tight trace.Tightness, variants []variant) *grid {
		cfg := smallConfig()
		cfg.Traces = 2
		cfg.TraceLen = 45
		cfg.ExactNodeLimit = nodeLimit
		g, err := runGrid(cfg, tight, variants)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	for _, tight := range []trace.Tightness{trace.VeryTight, trace.LessTight} {
		warm, cold := run(tight, warmVariants), run(tight, coldVariants)
		if !reflect.DeepEqual(warm.results, cold.results) {
			for v := range warm.results {
				for ti := range warm.results[v] {
					if !reflect.DeepEqual(warm.results[v][ti], cold.results[v][ti]) {
						t.Fatalf("%v variant %q trace %d: warm %+v != cold %+v",
							tight, warmVariants[v].name, ti, warm.results[v][ti], cold.results[v][ti])
					}
				}
			}
			t.Fatalf("%v: grids differ", tight)
		}
	}
}

// TestWarmStartMatchesColdSimTrace pins the claim all the way down to the
// per-job record stream: a single simulation run with a warm-started
// solver must marshal byte-identically to the cold run — every admission,
// mapping, migration, and completion the same, for both engines.
// (Telemetry is excluded: warm counters and wall-clock histograms differ
// by design; decisions must not.)
func TestWarmStartMatchesColdSimTrace(t *testing.T) {
	plat := platform.Default()
	root := rng.New(77)
	set, err := task.Generate(plat, task.DefaultGenConfig(), root.Split())
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(set, trace.GenConfig{
		Length:           80,
		InterarrivalMean: 1.2,
		InterarrivalStd:  0.4,
		Tightness:        trace.VeryTight,
	}, root.Split())
	if err != nil {
		t.Fatal(err)
	}
	run := func(solver core.Solver) []byte {
		res, err := sim.Run(engine.Config{Platform: plat, TaskSet: set, Solver: solver}, tr)
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
	engines := []struct {
		name       string
		warm, cold core.Solver
	}{
		{"heuristic", &core.Heuristic{Cache: sched.NewFeasCache(0)}, &core.Heuristic{}},
		{"exact", &exact.Optimal{WarmStart: true}, &exact.Optimal{}},
	}
	for _, e := range engines {
		w, c := run(e.warm), run(e.cold)
		if !bytes.Equal(w, c) {
			t.Fatalf("%s: warm and cold runs diverged:\nwarm: %s\ncold: %s", e.name, w, c)
		}
	}
}
