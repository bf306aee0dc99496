// Scale-sweep: the scale-out admission experiment. Not part of the
// paper's evaluation — the paper's platform is 5 CPUs + 1 GPU — this
// sweep measures what the sharded engine and batch epochs (DESIGN.md
// §12) cost and buy as the platform grows toward the ROADMAP's
// serving-at-scale north star.
package experiments

import (
	"fmt"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/metrics"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/sim"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// ScalePoint is one (platform, admission mode) cell of the sweep.
type ScalePoint struct {
	// Spec is the platform spec ("64c8g").
	Spec string
	// Shards used for this platform (1 for the unsharded reference).
	Shards int
	// BatchWindow in time units (0: the paper's one-by-one protocol).
	BatchWindow float64
	// Rejection summarises per-trace rejection percentages.
	Rejection metrics.Sample
	// Energy summarises per-trace total energy.
	Energy metrics.Sample
	// SolverMicros summarises per-trace mean solver latency (µs per
	// activation, wall time on this machine — indicative, not gated).
	SolverMicros metrics.Sample
}

// ScaleSweepResult holds the sweep grid and its printable table.
type ScaleSweepResult struct {
	Points []ScalePoint
	Table  *Table
}

// ScaleSweep grows the platform across specs and, per size, compares
// one-by-one admission on a single engine against sharded batched
// admission. Offered load scales with capacity (the mean interarrival
// shrinks proportionally to resource count, relative to the profile's
// value on the paper's 6-resource platform) and the task-type mix is
// sized to the platform, so every point runs at a comparable utilisation
// and rejection levels stay commensurable across sizes.
//
// Shard count and batch window also scale: one shard per ~9 resources
// (so the paper-sized platform keeps one shard) and a window of four
// mean interarrivals (so an epoch carries a handful of decisions).
func ScaleSweep(cfg Config, specs []string) (*ScaleSweepResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("experiments: scale sweep needs platform specs")
	}
	res := &ScaleSweepResult{}
	t := &Table{
		Title:  fmt.Sprintf("Scale sweep: one-by-one vs sharded batched admission (%d traces x %d reqs)", cfg.Traces, cfg.TraceLen),
		Header: []string{"platform", "mode", "rejection %", "energy (J)", "solver µs/act"},
		Notes: []string{
			"load and type mix scale with platform capacity; rejection is comparable across sizes",
			"solver µs is wall time on this machine - indicative only (see BENCH.md)",
			"batched mode shards the platform (1 shard per ~9 resources) and decides epochs jointly",
		},
	}
	baseline := float64(platform.Default().Len())
	for _, spec := range specs {
		plat, err := platform.Parse(spec)
		if err != nil {
			return nil, err
		}
		ia := cfg.Profile.InterarrivalMean * baseline / float64(plat.Len())
		shards := plat.Len() / 9
		if shards < 1 {
			shards = 1
		}
		modes := []struct {
			name   string
			shards int
			window float64
		}{
			{"one-by-one", 1, 0},
			{fmt.Sprintf("batched x%d", shards), shards, 4 * ia},
		}
		for _, mode := range modes {
			point := ScalePoint{Spec: spec, Shards: mode.shards, BatchWindow: mode.window}
			var rej, energy, lat []float64
			for ti := 0; ti < cfg.Traces; ti++ {
				root := rng.New(cfg.Seed + uint64(ti)*1009)
				tcfg := cfg.Profile.TaskGen
				if min := 2 * plat.Len(); tcfg.NumTypes < min {
					tcfg.NumTypes = min
				}
				set, err := task.Generate(plat, tcfg, root.Split())
				if err != nil {
					return nil, err
				}
				tr, err := trace.Generate(set, trace.GenConfig{
					Length:           cfg.TraceLen,
					InterarrivalMean: ia,
					InterarrivalStd:  ia / 3,
					Tightness:        trace.VeryTight,
				}, root.Split())
				if err != nil {
					return nil, err
				}
				reg := telemetry.NewRegistry()
				r, err := sim.RunSharded(engine.Config{
					Platform: plat,
					TaskSet:  set,
					Metrics:  reg,
				}, engine.ShardConfig{
					Shards:      mode.shards,
					BatchWindow: mode.window,
					NewSolver: func() core.Solver {
						return &core.Heuristic{Cache: sched.NewFeasCache(0)}
					},
				}, tr)
				if err != nil {
					return nil, fmt.Errorf("experiments: %s %s trace %d: %w", spec, mode.name, ti, err)
				}
				if r.DeadlineMisses > 0 {
					return nil, fmt.Errorf("experiments: %s %s trace %d: %d deadline misses (RM unsound)", spec, mode.name, ti, r.DeadlineMisses)
				}
				rej = append(rej, r.RejectionPct())
				energy = append(energy, r.TotalEnergy)
				if h, ok := reg.Snapshot().Histograms["sim.solver_seconds"]; ok && h.Count > 0 {
					lat = append(lat, 1e6*h.Sum/float64(h.Count))
				}
			}
			point.Rejection = metrics.Summarise(rej)
			point.Energy = metrics.Summarise(energy)
			point.SolverMicros = metrics.Summarise(lat)
			res.Points = append(res.Points, point)
			t.AddRow(spec, mode.name, f2(point.Rejection.Mean), f1(point.Energy.Mean), f2(point.SolverMicros.Mean))
		}
	}
	res.Table = t
	return res, nil
}
