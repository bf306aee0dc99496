// Command rmserve runs the resource manager as a long-lived wall-clock
// service: the same activation engine the simulator drives (admission
// protocol, EDF dispatch, migration charging), fed live over HTTP
// instead of from a recorded trace.
//
// Usage:
//
//	rmserve -addr :8080 -engine heuristic
//	rmserve -addr :8080 -taskset traces/taskset.json -engine milp -speed 50
//	rmserve -addr :8080 -solver-budget 5ms -provenance -trace-out events.jsonl
//
// Submit requests with `tracegen -fire http://localhost:8080` (live
// load generation / trace replay) or plain curl:
//
//	curl -d '{"type": 3, "deadline": 12.5}' localhost:8080/v1/requests
//	curl localhost:8080/v1/decisions/0
//
// Every non-/v1 path is the live introspection plane (internal/obs):
// /metrics, /statusz, /explainz, /trace/tail, /debug/pprof.
//
// -speed scales engine time against wall time (speed N means N engine
// time units per real second), so recorded traces can be replayed live
// at any compression without changing a single admission decision.
//
// On SIGINT/SIGTERM the server shuts down gracefully: intake answers
// 503, open tail streams get their terminal event, in-flight activations
// finish, and the remaining admitted jobs drain before the final
// rmsim-style summary prints. A second signal — or -drain-timeout —
// abandons the drain and exits non-zero.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"predrm/cmd/internal/cli"
	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/obs"
	"predrm/internal/rng"
	"predrm/internal/serve"
	"predrm/internal/telemetry"
)

func main() {
	var (
		addr     = flag.String("addr", ":8080", "address to serve the RM API and introspection plane on (:0 picks a free port)")
		setPath  = flag.String("taskset", "", "task-set JSON file written by tracegen (empty: generate from -seed)")
		platSpec = flag.String("platform", "", "platform spec like 5c1g or 64c8g (empty: the paper's 5c1g default; invalid with -taskset, which carries its platform)")
		shards   = flag.Int("shards", 1, "partition the platform into this many shards, each admitting against only its own resources (scale-out mode)")
		engName  = flag.String("engine", "heuristic", "mapping engine: heuristic, greedy, or milp")
		seed     = flag.Uint64("seed", 1, "task-set seed (ignored with -taskset)")
		types    = flag.Int("types", 100, "generated task types (ignored with -taskset)")
		speed    = flag.Float64("speed", 1, "engine time units per real second (replay compression; decisions are speed-invariant)")

		solverBudget = flag.String("solver-budget", "", "per-activation solver budget: a node count (e.g. 20000) or a wall duration (e.g. 5ms); enables the budgeted fallback chain for graceful degradation under load")

		traceOut     = flag.String("trace-out", "", "write the structured event stream as JSONL to this file")
		provOn       = flag.Bool("provenance", false, "record decision provenance into the event stream (inspect via /explainz or tracetool explain)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown may wait for in-flight jobs to drain")
	)
	flag.Parse()
	if *speed <= 0 {
		fatalf("-speed %g must be positive", *speed)
	}
	if *shards < 1 {
		fatalf("-shards %d must be at least 1", *shards)
	}
	if *shards > 1 {
		// Multi-shard engines reject globally-stateful features (see
		// engine.NewSharded); /trace/tail and /explainz go dark, the rest
		// of the plane (metrics, statusz) stays live.
		if *traceOut != "" {
			fatalf("-trace-out is not supported with -shards > 1 (per-shard event streams would interleave)")
		}
		if *provOn {
			fatalf("-provenance is not supported with -shards > 1")
		}
	}

	newSolver, err := cli.SolverFactory(*engName)
	if err != nil {
		fatalf("%v", err)
	}
	budget, err := cli.ParseBudget(*solverBudget)
	if err != nil {
		fatalf("solver-budget: %v", err)
	}
	set, err := cli.TaskSet(*setPath, *platSpec, *types, rng.New(*seed))
	if err != nil {
		fatalf("%v", err)
	}

	cfg := engine.Config{
		Platform: set.Platform,
		TaskSet:  set,
		Metrics:  telemetry.NewRegistry(),
	}
	var (
		traceFile *os.File
		tracer    *telemetry.Tracer
	)
	if *shards == 1 {
		topts := telemetry.TracerOptions{}
		if *traceOut != "" {
			traceFile, err = os.Create(*traceOut)
			if err != nil {
				fatalf("trace-out: %v", err)
			}
			topts.Sink = traceFile
		}
		tracer = telemetry.NewTracer(topts)
		cfg.Tracer = tracer
		cfg.Provenance = *provOn
	}
	// solver builds one solver instance with, under -solver-budget, its
	// own fallback chain: the engine's one, or with -shards > 1 one per
	// shard, as shards cannot share solver state (the tracer is nil there).
	solver := func() core.Solver {
		s := newSolver()
		if *solverBudget == "" {
			return s
		}
		return cli.Budgeted(*engName, s, budget, tracer)
	}

	plane := obs.NewPlane(obs.Options{
		Snapshot: cfg.Metrics.Snapshot,
		Tracer:   tracer,
	})
	srv, err := serve.New(serve.Config{
		Engine: cfg,
		Shard:  engine.ShardConfig{Shards: *shards, NewSolver: solver},
		Clock:  serve.NewWallClock(*speed),
		Plane:  plane,
	})
	if err != nil {
		fatalf("%v", err)
	}
	if err := srv.Listen(*addr); err != nil {
		fatalf("%v", err)
	}
	fmt.Fprintf(os.Stderr, "rmserve: serving on %s (engine %s, platform %s, %d shard(s), speed %gx)\n",
		srv.URL(), *engName, set.Platform.Spec(), *shards, *speed)
	fmt.Fprintf(os.Stderr, "rmserve: POST %s/v1/requests, introspection at %s/statusz\n", srv.URL(), srv.URL())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	<-ctx.Done()
	stop() // a second signal kills the process the default way
	fmt.Fprintf(os.Stderr, "rmserve: signal received, draining (up to %v; signal again to abort)\n", *drainTimeout)

	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	shutdownErr := srv.Shutdown(dctx)
	res := srv.Result()

	if traceFile != nil && tracer != nil {
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

	fmt.Printf("engine:           %s (speed %gx)\n", *engName, *speed)
	fmt.Printf("platform:         %s\n", set.Platform.Spec())
	if *shards > 1 {
		fmt.Printf("scale-out:        %d shards\n", *shards)
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
		lat := res.Telemetry.Histograms["sim.solver_seconds"]
		if lat.Count > 0 {
			fmt.Printf("solver latency:   p50 %.1f µs, p95 %.1f µs, max %.1f µs (%d activations)\n",
				lat.Quantile(0.50)*1e6, lat.Quantile(0.95)*1e6, lat.Max*1e6, lat.Count)
		}
	}

	if shutdownErr != nil {
		fatalf("shutdown: %v", shutdownErr)
	}
	if err := srv.Err(); err != nil {
		fatalf("engine: %v", err)
	}
	if res.DeadlineMisses > 0 {
		fatalf("deadline misses detected: resource-manager invariant broken")
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "rmserve: "+format+"\n", args...)
	os.Exit(1)
}
