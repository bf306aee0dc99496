// Command rmsim runs one resource-management simulation over a generated
// or loaded trace and reports acceptance, energy and migration statistics.
//
// Usage:
//
//	rmsim -engine heuristic -predict -accuracy 0.9 -seed 1
//	rmsim -taskset traces/taskset.json -trace traces/trace-VT-000.json -engine milp -gantt 60
//	rmsim -predict -trace-out events.jsonl -metrics-out metrics.json -cpuprofile cpu.pprof
//
// A trace produced by tracegen should be loaded together with its
// taskset.json (task-set generation is part of the workload's identity);
// without -taskset, rmsim regenerates the set from -seed and -types.
//
// Observability: -trace-out streams the structured simulation event log as
// JSONL (see the README's Observability section for the schema),
// -metrics-out writes the run's metrics snapshot as JSON and prints a
// solver-latency summary, and -cpuprofile/-memprofile write runtime/pprof
// profiles of the simulation. -provenance records each admission
// decision's full causal chain into the event stream (decision events;
// inspect with `tracetool explain` or the ops server's /explainz).
// -ops-addr mounts the live introspection plane (internal/obs) for the
// duration of the run: /metrics in Prometheus exposition format, /statusz
// JSON RM state with SLO burn rates, /explainz decision narratives,
// /trace/tail live event streaming, and /debug/pprof; -ops-linger keeps
// it up after the run so the end state can be inspected.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"predrm/cmd/internal/cli"
	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/faultinject"
	"predrm/internal/gantt"
	"predrm/internal/obs"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sim"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

func main() {
	var (
		tracePath = flag.String("trace", "", "trace JSON file (empty: generate)")
		setPath   = flag.String("taskset", "", "task-set JSON file written by tracegen (empty: generate from -seed)")
		engName   = flag.String("engine", "heuristic", "mapping engine: heuristic, greedy, or milp")
		warmStart = flag.Bool("warmstart", true, "reuse the previous activation's work: the milp engine repairs its last mapping into a pruning bound, the heuristic engines cache EDF probe verdicts across activations; decisions are identical either way")
		platSpec  = flag.String("platform", "", "platform spec like 5c1g or 64c8g (empty: the paper's 5c1g default; invalid with -taskset, which carries its platform)")
		shards    = flag.Int("shards", 1, "partition the platform into this many shards, each admitting against only its own resources (scale-out mode)")
		batchWin  = flag.Float64("batch-window", 0, "collect arrivals for this many time units and admit each window as one batch epoch (0: the paper's one-by-one protocol)")
		usePred   = flag.Bool("predict", false, "enable the oracle predictor")
		accuracy  = flag.Float64("accuracy", 1.0, "oracle task-type accuracy in [0,1]")
		timeErr   = flag.Float64("time-error", 0, "oracle arrival-time normalized RMSE")
		overhead  = flag.Float64("overhead", 0, "prediction overhead in time units")
		seed      = flag.Uint64("seed", 1, "workload seed")
		length    = flag.Int("len", 500, "generated trace length")
		group     = flag.String("group", "VT", "deadline group: VT or LT")
		meanIA    = flag.Float64("interarrival", 3.0, "generated mean interarrival")
		types     = flag.Int("types", 100, "task types")
		verbose   = flag.Bool("v", false, "print per-request outcomes")
		showGantt = flag.Int("gantt", 0, "render the first N time units of the executed schedule")

		solverBudget = flag.String("solver-budget", "", "per-activation solver budget: a node count (e.g. 20000) or a wall duration (e.g. 5ms); enables the budgeted fallback chain")
		faultPlan    = flag.String("fault-plan", "", "deterministic fault plan, e.g. seed=7,solver-error=0.2,latency-rate=0.1,latency=0.5 (see internal/faultinject); enables the fallback chain")

		traceOut   = flag.String("trace-out", "", "write the structured event stream as JSONL to this file")
		provOn     = flag.Bool("provenance", false, "record decision provenance (per-candidate verdicts, solver-chain hops) into the event stream; requires -trace-out or -ops-addr")
		metricsOut = flag.String("metrics-out", "", "write the metrics snapshot as JSON to this file")
		opsAddr    = flag.String("ops-addr", "", "serve the live introspection plane (/metrics, /statusz, /trace/tail, pprof) on this address (:0 picks a free port)")
		opsLinger  = flag.Duration("ops-linger", 0, "keep the ops server up this long after the run finishes (requires -ops-addr)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the simulation to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the simulation to this file")
	)
	flag.Parse()
	validateFlags(*usePred, *accuracy, *timeErr, *overhead, *length, *types, *meanIA, *showGantt, *group)
	if *opsAddr == "" && cli.FlagWasSet("ops-linger") {
		fatalf("-ops-linger has no effect without -ops-addr")
	}
	if *shards < 1 {
		fatalf("-shards %d must be at least 1", *shards)
	}
	if *batchWin < 0 {
		fatalf("-batch-window %g must be non-negative", *batchWin)
	}
	if *shards > 1 {
		// Multi-shard engines reject globally-stateful features (see
		// engine.NewSharded); fail on the flag rather than deep in setup.
		for _, bad := range []struct {
			set  bool
			name string
		}{
			{*usePred, "predict"},
			{*provOn, "provenance"},
			{*traceOut != "", "trace-out"},
			{*opsAddr != "", "ops-addr"},
			{*faultPlan != "", "fault-plan"},
		} {
			if bad.set {
				fatalf("-%s is not supported with -shards > 1 (its state is global; see DESIGN.md §12)", bad.name)
			}
		}
	}

	newSolver, err := cli.SolverFactory(*engName, *warmStart)
	if err != nil {
		fatalf("%v", err)
	}
	budget, err := cli.ParseBudget(*solverBudget)
	if err != nil {
		fatalf("solver-budget: %v", err)
	}

	// Loading the task set draws the generator's split too, so the trace
	// stream below is the same either way.
	root := rng.New(*seed)
	set, err := cli.TaskSet(*setPath, *platSpec, *types, root)
	if err != nil {
		fatalf("%v", err)
	}
	plat := set.Platform

	var tr *trace.Trace
	if *tracePath != "" {
		tr, err = trace.ReadFile(*tracePath)
		if err != nil {
			fatalf("load trace: %v", err)
		}
	} else {
		tight := trace.VeryTight
		if *group == "LT" || *group == "lt" {
			tight = trace.LessTight
		}
		gcfg := trace.GenConfig{
			Length:           *length,
			InterarrivalMean: *meanIA,
			InterarrivalStd:  *meanIA / 3,
			Tightness:        tight,
		}
		tr, err = trace.Generate(set, gcfg, root.Split())
		if err != nil {
			fatalf("generate trace: %v", err)
		}
	}

	cfg := engine.Config{
		Platform:        plat,
		TaskSet:         set,
		RecordExecution: *showGantt > 0,
	}
	if *usePred {
		o, err := predict.NewOracle(tr, predict.OracleConfig{
			TypeAccuracy: *accuracy,
			TimeError:    *timeErr,
			Overhead:     *overhead,
			NumTypes:     set.Len(),
			Seed:         *seed + 17,
		})
		if err != nil {
			fatalf("oracle: %v", err)
		}
		cfg.Predictor = o
	}

	var (
		tracer    *telemetry.Tracer
		traceFile *os.File
	)
	if *traceOut != "" {
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fatalf("trace-out: %v", err)
		}
		tracer = telemetry.NewTracer(telemetry.TracerOptions{Sink: traceFile})
		cfg.Tracer = tracer
	}
	if *opsAddr != "" && tracer == nil {
		// The introspection plane tails the event stream live; without
		// -trace-out a ring-only tracer backs /trace/tail.
		tracer = telemetry.NewTracer(telemetry.TracerOptions{})
		cfg.Tracer = tracer
	}
	if *provOn {
		if tracer == nil {
			fatalf("-provenance has no effect without -trace-out or -ops-addr (decision records ride the event stream)")
		}
		cfg.Provenance = true
	}
	resilient := *solverBudget != "" || *faultPlan != ""
	if *metricsOut != "" || resilient || *opsAddr != "" {
		// The resilience chain always collects metrics so the degraded-mode
		// summary below can report what actually happened; the ops server
		// renders the same registry on /metrics.
		cfg.Metrics = telemetry.NewRegistry()
	}
	var plan *faultinject.Plan
	if *faultPlan != "" {
		p, err := faultinject.ParsePlan(*faultPlan)
		if err != nil {
			fatalf("fault-plan: %v", err)
		}
		plan = &p
		cfg.OverheadHook = plan.Hook(tracer, cfg.Metrics)
		if cfg.Predictor != nil {
			cfg.Predictor = plan.Predictor(cfg.Predictor, tracer, cfg.Metrics)
		}
	}
	// solver builds one solver instance with, under -solver-budget or
	// -fault-plan, its own fallback chain: the engine's one, or with
	// -shards > 1 one per shard, as shards cannot share solver state (the
	// tracer is nil there, as flag validation refuses tracing).
	solver := func() core.Solver {
		s := newSolver()
		if !resilient {
			return s
		}
		if plan != nil {
			s = plan.Solver(s, tracer)
		}
		return cli.Budgeted(*engName, s, budget, tracer)
	}
	var (
		plane  *obs.Plane
		opsSrv *obs.Server
	)
	if *opsAddr != "" {
		plane = obs.NewPlane(obs.Options{
			Snapshot: cfg.Metrics.Snapshot,
			Tracer:   tracer,
		})
		cfg.StateProbe = plane.Probe
		opsSrv, err = obs.Serve(*opsAddr, plane)
		if err != nil {
			fatalf("ops-addr: %v", err)
		}
		fmt.Fprintf(os.Stderr, "rmsim: ops server on %s (try %s/statusz)\n", opsSrv.URL(), opsSrv.URL())
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
	}

	res, err := sim.RunSharded(cfg, engine.ShardConfig{
		Shards:      *shards,
		BatchWindow: *batchWin,
		NewSolver:   solver,
	}, tr)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fatalf("simulate: %v", err)
	}
	if traceFile != nil {
		// A sink write failure means the JSONL stream on disk is silently
		// truncated; surface it rather than shipping a partial trace.
		if err := tracer.Flush(); err != nil {
			fatalf("trace-out: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			fatalf("trace-out: %v", err)
		}
		if err := tracer.Err(); err != nil {
			fatalf("trace-out: event stream truncated: %v", err)
		}
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("memprofile: %v", err)
		}
		runtime.GC() // settle the heap so the profile reflects retained memory
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("memprofile: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("memprofile: %v", err)
		}
	}
	if *metricsOut != "" {
		buf, err := json.MarshalIndent(res.Telemetry, "", "  ")
		if err != nil {
			fatalf("metrics-out: %v", err)
		}
		if err := os.WriteFile(*metricsOut, append(buf, '\n'), 0o644); err != nil {
			fatalf("metrics-out: %v", err)
		}
	}

	if *verbose {
		for _, j := range res.Jobs {
			status := "rejected"
			if j.Accepted {
				status = fmt.Sprintf("finished %.3f", j.FinishTime)
			}
			fmt.Printf("req %3d type %3d arr %9.3f dl %9.3f  %s\n",
				j.ID, j.Type, j.Arrival, j.AbsDeadline, status)
		}
	}
	fmt.Printf("engine:           %s (prediction %v)\n", *engName, *usePred)
	fmt.Printf("platform:         %s\n", plat.Spec())
	if *shards > 1 || *batchWin > 0 {
		fmt.Printf("scale-out:        %d shard(s), batch window %g\n", *shards, *batchWin)
	}
	fmt.Printf("requests:         %d\n", res.Requests)
	fmt.Printf("accepted:         %d\n", res.Accepted)
	fmt.Printf("rejected:         %d (%.2f%%)\n", res.Rejected, res.RejectionPct())
	fmt.Printf("total energy:     %.2f J\n", res.TotalEnergy)
	fmt.Printf("migrations:       %d (%.2f J)\n", res.Migrations, res.MigrationEnergy)
	fmt.Printf("makespan:         %.2f\n", res.MakeSpan)
	fmt.Printf("deadline misses:  %d\n", res.DeadlineMisses)
	if res.Telemetry != nil {
		cli.PrintReasonLine("admit reasons:    ", res.Telemetry.Counters, "sim.admit_reason.")
		cli.PrintReasonLine("reject reasons:   ", res.Telemetry.Counters, "sim.reject_reason.")
	}
	if res.Telemetry != nil {
		lat := res.Telemetry.Histograms["sim.solver_seconds"]
		fmt.Printf("solver latency:   p50 %.1f µs, p95 %.1f µs, max %.1f µs (%d activations)\n",
			lat.Quantile(0.50)*1e6, lat.Quantile(0.95)*1e6, lat.Max*1e6, lat.Count)
		c := res.Telemetry.Counters
		if probes := c["exact.cache.hits"] + c["exact.cache.misses"]; probes > 0 {
			fmt.Printf("feascache:        %.1f%% hit rate (%d hits, %d misses)\n",
				100*float64(c["exact.cache.hits"])/float64(probes),
				c["exact.cache.hits"], c["exact.cache.misses"])
		}
		if probes := c["core.cache.hits"] + c["core.cache.misses"]; probes > 0 {
			fmt.Printf("feascache:        %.1f%% hit rate (%d hits, %d misses; heuristic probe cache)\n",
				100*float64(c["core.cache.hits"])/float64(probes),
				c["core.cache.hits"], c["core.cache.misses"])
		}
		if attempts := c["exact.warmstart.attempts"]; attempts > 0 {
			fmt.Printf("warmstart:        %.1f%% seed-feasible (%d/%d repairs), %d bound cuts\n",
				100*float64(c["exact.warmstart.seeded"])/float64(attempts),
				c["exact.warmstart.seeded"], attempts, c["exact.warmstart.bound_cuts"])
		}
	}
	if plane != nil {
		rep := plane.SLO().Report()
		fmt.Printf("slo:              rejection %.1f%% of %.0f%% budget; miss %.2g%% of %.2g%% budget\n",
			100*rep.TotalRejectionRate, 100*rep.RejectionTarget,
			100*rep.TotalMissRate, 100*rep.MissTarget)
		for _, w := range rep.Windows {
			fmt.Printf("slo window %-6g rejection burn %.2f, miss burn %.2f\n",
				w.Window, w.RejectionBurn, w.MissBurn)
		}
	}
	if tracer != nil {
		if n := tracer.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr,
				"rmsim: warning: event ring overflowed, %d event(s) lost from the in-memory buffer (-trace-out streams are unaffected)\n", n)
		}
	}
	if resilient && res.Telemetry != nil {
		c := res.Telemetry.Counters
		fmt.Printf("resilience:       %d fallbacks (%d stage errors, %d budget exhaustions), %d reject-only\n",
			c["resilience.fallbacks"], c["resilience.stage_errors"],
			c["resilience.budget_exhausted"], c["resilience.reject_only"])
		if n := c["faultinject.solver_errors"] + c["faultinject.latency_spikes"] +
			c["faultinject.predictor_outages"] + c["faultinject.predictor_corruptions"]; n > 0 {
			fmt.Printf("faults injected:  %d (%d solver, %d latency, %d outage, %d corrupt)\n", n,
				c["faultinject.solver_errors"], c["faultinject.latency_spikes"],
				c["faultinject.predictor_outages"], c["faultinject.predictor_corruptions"])
		}
	}
	if *showGantt > 0 {
		opening := gantt.Clip(res.Execution, 0, float64(*showGantt))
		if chart, err := gantt.New(plat, opening); err == nil {
			fmt.Printf("\nexecuted schedule, t in [0, %d):\n", *showGantt)
			if err := chart.Render(os.Stdout, 100); err != nil {
				fatalf("render: %v", err)
			}
		}
	}
	if opsSrv != nil {
		if *opsLinger > 0 {
			// Interruptible linger: Ctrl-C must still reach opsSrv.Close so
			// open /trace/tail streams get their clean terminal event
			// instead of dying with the process.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			fmt.Fprintf(os.Stderr, "rmsim: ops server lingering for %v on %s (Ctrl-C to stop)\n", *opsLinger, opsSrv.URL())
			select {
			case <-time.After(*opsLinger):
			case <-ctx.Done():
				fmt.Fprintln(os.Stderr, "rmsim: interrupted, closing ops server")
			}
			stop()
		}
		if err := opsSrv.Close(); err != nil {
			fatalf("ops-addr: %v", err)
		}
	}
	if res.DeadlineMisses > 0 {
		fatalf("deadline misses detected: resource-manager invariant broken")
	}
}

// validateFlags rejects combinations the simulation would otherwise
// silently misinterpret: prediction-shaping flags are errors without
// -predict (they would be read but have no effect), and workload
// parameters must stay in their meaningful ranges.
func validateFlags(usePred bool, accuracy, timeErr, overhead float64, length, types int, meanIA float64, ganttLen int, group string) {
	if !usePred {
		for _, name := range []string{"accuracy", "time-error", "overhead"} {
			if cli.FlagWasSet(name) {
				fatalf("-%s has no effect without -predict", name)
			}
		}
	}
	switch {
	case accuracy < 0 || accuracy > 1:
		fatalf("-accuracy %g outside [0,1]", accuracy)
	case timeErr < 0:
		fatalf("-time-error %g must be non-negative", timeErr)
	case overhead < 0:
		fatalf("-overhead %g must be non-negative", overhead)
	case length <= 0:
		fatalf("-len %d must be positive", length)
	case types <= 0:
		fatalf("-types %d must be positive", types)
	case meanIA <= 0:
		fatalf("-interarrival %g must be positive", meanIA)
	case ganttLen < 0:
		fatalf("-gantt %d must be non-negative", ganttLen)
	}
	switch group {
	case "VT", "vt", "LT", "lt":
	default:
		fatalf("unknown deadline group %q (want VT or LT)", group)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rmsim: "+format+"\n", args...)
	os.Exit(1)
}
