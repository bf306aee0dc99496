package experiments

// Resilience ablation: how gracefully does the budgeted fallback chain
// (core.BudgetedSolver) degrade as injected fault rates rise? The paper
// assumes a solver that always answers; this table quantifies what the
// admission protocol's always-sound rejection floor buys when it does not:
// rejection drifts up with the fault rate while the deadline invariant
// stays intact (the sweep hard-fails on any miss).

import (
	"fmt"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/faultinject"
	"predrm/internal/metrics"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// wireResilience rewires scfg for a variant carrying a resilienceSpec: the
// configured solver becomes the primary stage of a budgeted chain falling
// back to the plain heuristic (reject-only is the chain's implicit
// terminal), and a non-zero fault plan wraps the primary stage with
// injected solver errors plus the predictor and latency faults. Faults are
// injected *inside* the chain so they degrade admission instead of
// aborting the run; the trace-derived plan seed keeps the whole grid
// deterministic in Config.Seed.
func wireResilience(scfg *engine.Config, v variant, traceSeed uint64) {
	r := v.resilience
	var trc *telemetry.Tracer
	if v.telemetry {
		trc = scfg.Tracer
	}
	primary := scfg.Solver
	if r.plan != nil && !r.plan.IsZero() {
		plan := *r.plan
		plan.Seed ^= traceSeed*0x9e3779b97f4a7c15 + 1
		primary = plan.Solver(primary, trc)
		scfg.OverheadHook = plan.Hook(trc, scfg.Metrics)
		if scfg.Predictor != nil {
			scfg.Predictor = plan.Predictor(scfg.Predictor, trc, scfg.Metrics)
		}
	}
	scfg.Solver = &core.BudgetedSolver{
		Stages: []core.Stage{
			{Name: "primary", Solver: primary},
			{Name: "heuristic", Solver: &core.Heuristic{}},
		},
		Budget: r.budget,
		Tracer: trc,
	}
}

// FaultSweepResult is the graceful-degradation ablation: rejection and
// degraded-mode telemetry versus injected fault rate.
type FaultSweepResult struct {
	// Rates are the swept fault intensities (the solver-error rate; the
	// other fault channels scale with it, see FaultSweep).
	Rates []float64
	// Rej holds the per-rate rejection summaries.
	Rej []metrics.Sample
	// PerRate maps a variant name to its merged telemetry snapshot.
	PerRate map[string]*telemetry.Snapshot
	Table   *Table
}

// faultSweepBudget bounds the exact primary stage per activation in the
// sweep: large enough that the anytime incumbent is always available, small
// enough that the bound is actually exercised on dense problems.
const faultSweepBudget = 20000

// FaultSweep simulates the hardened exact engine (budgeted chain: exact →
// heuristic → reject-only, accurate prediction) on the VT group while an
// injected fault plan sweeps its intensity over rates: at intensity r the
// solver fails r of its activations, the predictor blacks out on r of its
// forecasts and corrupts r/2 of the rest, and r/2 of the decisions take a
// latency spike. Any deadline miss fails the sweep — graceful degradation
// must never trade the invariant for throughput.
func FaultSweep(cfg Config, rates []float64) (*FaultSweepResult, error) {
	var variants []variant
	for _, r := range rates {
		plan := &faultinject.Plan{
			Seed:                 cfg.Seed,
			SolverErrorRate:      r,
			LatencyRate:          r / 2,
			LatencySpike:         0.1 * cfg.Profile.InterarrivalMean,
			PredictorOutageRate:  r,
			PredictorCorruptRate: r / 2,
			CorruptShift:         0.5 * cfg.Profile.InterarrivalMean,
		}
		if err := plan.Validate(); err != nil {
			return nil, err
		}
		variants = append(variants, variant{
			name:      fmt.Sprintf("faults=%g%%", 100*r),
			engine:    engineExact,
			predict:   accurate(),
			telemetry: true,
			resilience: &resilienceSpec{
				budget: core.Budget{Nodes: faultSweepBudget},
				plan:   plan,
			},
		})
	}
	g, err := runGrid(cfg, trace.VeryTight, variants)
	if err != nil {
		return nil, err
	}
	if n := g.misses(); n > 0 {
		return nil, fmt.Errorf("experiments: fault sweep caused %d deadline misses (degradation not graceful)", n)
	}

	res := &FaultSweepResult{
		Rates:   append([]float64(nil), rates...),
		PerRate: make(map[string]*telemetry.Snapshot, len(variants)),
	}
	table := &Table{
		Title: fmt.Sprintf("Resilience: graceful degradation vs injected fault rate (VT, MILP chain, budget %d nodes, %s profile)",
			faultSweepBudget, cfg.Profile.Name),
		Header: []string{"variant", "rejection %", "solver faults", "fallbacks",
			"reject-only", "budget exhausted", "latency spikes", "pred outages"},
		Notes: []string{
			"chain: exact (budgeted) -> heuristic -> reject-only; rejection is the only degradation channel",
			"deadline misses are asserted zero across the whole sweep",
		},
	}
	for vi, v := range variants {
		snaps := make([]*telemetry.Snapshot, 0, len(g.results[vi]))
		for _, tr := range g.results[vi] {
			snaps = append(snaps, tr.Telemetry)
		}
		merged := telemetry.Merge(snaps...)
		res.PerRate[v.name] = merged
		rej := metrics.Summarise(g.rejections(vi))
		res.Rej = append(res.Rej, rej)
		table.AddRow(v.name,
			f2(rej.Mean),
			fmt.Sprintf("%d", merged.Counters["faultinject.solver_errors"]),
			fmt.Sprintf("%d", merged.Counters["resilience.fallbacks"]),
			fmt.Sprintf("%d", merged.Counters["resilience.reject_only"]),
			fmt.Sprintf("%d", merged.Counters["resilience.budget_exhausted"]),
			fmt.Sprintf("%d", merged.Counters["faultinject.latency_spikes"]),
			fmt.Sprintf("%d", merged.Counters["faultinject.predictor_outages"]),
		)
	}
	res.Table = table
	return res, nil
}
