// Command experiments regenerates the paper's evaluation: every table and
// figure of Sec 5 plus this repository's ablations.
//
// Usage:
//
//	experiments -exp all                    # everything, laptop scale
//	experiments -exp fig2b -traces 100      # one figure, more traces
//	experiments -exp fig5 -profile paper    # literal Sec 5.1 parameters
//
// Experiment ids: motivational, milp-vs-heuristic, fig2a, fig2b, fig3a,
// fig3b, fig4a, fig4b, fig5, ablation-regret, ablation-migration,
// online-predictors, lookahead, baseline-static, load-surface, telemetry,
// fault-sweep, scale-sweep, all.
//
// Observability: -metrics-out writes the merged telemetry snapshot of the
// experiments that collect one (currently "telemetry") as JSON, -trace-out
// streams their structured event logs as JSONL (analysable with
// tracetool), -cpuprofile/-memprofile capture runtime/pprof profiles of
// the whole run, and -ops-addr serves the live introspection plane
// (/metrics, /statusz, /trace/tail — see internal/obs) while the sweep
// runs; -ops-linger keeps it up after the last experiment so a final
// scrape can be taken.
//
// Scale-out: -platform gives the comma-separated platform specs the
// scale-sweep experiment grows across (default "8c1g,16c2g,64c8g"; see
// platform.Parse for the spec grammar). The paper experiments always run
// on the paper's 5c1g platform.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"predrm/cmd/internal/cli"
	"predrm/internal/experiments"
	"predrm/internal/obs"
	"predrm/internal/platform"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (see doc comment)")
		traces   = flag.Int("traces", 30, "traces per group (paper: 500)")
		traceLen = flag.Int("len", 200, "requests per trace (paper: 500)")
		seed     = flag.Uint64("seed", 1, "workload seed")
		profile  = flag.String("profile", "calibrated", "workload profile: calibrated or paper")
		nodes    = flag.Int("exact-nodes", 0, "exact-solver node limit per activation (0 = default)")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")

		metricsOut = flag.String("metrics-out", "", "write the merged telemetry snapshot as JSON to this file")
		traceOut   = flag.String("trace-out", "", "write telemetry-collecting runs' event streams as JSONL to this file (concatenates one stream per simulated trace; for tracetool check/diff record a single run with rmsim)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the run to this file")
		opsAddr    = flag.String("ops-addr", "", "serve the live introspection plane (metrics, statusz, trace tail, pprof) on this address while the sweep runs")
		opsLinger  = flag.Duration("ops-linger", 0, "keep the -ops-addr server up this long after the last experiment")
		platSpecs  = flag.String("platform", "8c1g,16c2g,64c8g", "comma-separated platform specs the scale-sweep experiment grows across (other experiments run the paper's 5c1g platform)")
	)
	flag.Parse()
	validateFlags(*traces, *traceLen, *nodes)
	if *opsLinger > 0 && *opsAddr == "" {
		fatalf("-ops-linger needs -ops-addr")
	}

	cfg := experiments.DefaultConfig()
	cfg.Traces = *traces
	cfg.TraceLen = *traceLen
	cfg.Seed = *seed
	cfg.ExactNodeLimit = *nodes
	switch *profile {
	case "calibrated":
		cfg.Profile = experiments.CalibratedProfile()
	case "paper":
		cfg.Profile = experiments.PaperProfile()
	default:
		fatalf("unknown profile %q", *profile)
	}

	var scaleSpecs []string
	for _, s := range strings.Split(*platSpecs, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		if _, err := platform.Parse(s); err != nil {
			fatalf("-platform: %v", err)
		}
		scaleSpecs = append(scaleSpecs, s)
	}
	if len(scaleSpecs) == 0 {
		fatalf("-platform %q: no specs", *platSpecs)
	}

	ids := strings.Split(*exp, ",")
	if *exp == "all" {
		// impact-lt/impact-vt print Fig 2 and Fig 3 from a single run.
		ids = []string{
			"motivational", "milp-vs-heuristic",
			"impact-lt", "impact-vt",
			"fig4a", "fig4b", "fig5",
			"ablation-regret", "ablation-migration", "online-predictors",
			"lookahead", "baseline-static", "load-surface", "telemetry",
			"fault-sweep", "scale-sweep",
		}
	}
	var traceFile *os.File
	if *traceOut != "" {
		var err error
		traceFile, err = os.Create(*traceOut)
		if err != nil {
			fatalf("trace-out: %v", err)
		}
		cfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Sink: traceFile})
	}
	// Merged snapshot of the telemetry-collecting experiments finished so
	// far, refreshed after each id; the ops plane scrapes it live.
	var merged atomic.Pointer[telemetry.Snapshot]
	var opsSrv *obs.Server
	if *opsAddr != "" {
		if cfg.Tracer == nil {
			// Ring-only tracer: no JSONL sink, but /trace/tail subscribers
			// can still stream the telemetry experiments' events live.
			cfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{})
		}
		plane := obs.NewPlane(obs.Options{
			Snapshot: func() *telemetry.Snapshot { return merged.Load() },
			Tracer:   cfg.Tracer,
		})
		cfg.StateProbe = plane.Probe
		var err error
		opsSrv, err = obs.Serve(*opsAddr, plane)
		if err != nil {
			fatalf("ops-addr: %v", err)
		}
		fmt.Fprintf(os.Stderr, "experiments: ops server on %s (try %s/statusz)\n", opsSrv.URL(), opsSrv.URL())
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
	start := time.Now()
	var snaps []*telemetry.Snapshot
	for _, id := range ids {
		id = strings.TrimSpace(id)
		tables, snap, err := run(id, cfg, scaleSpecs)
		if err != nil {
			fatalf("%s: %v", id, err)
		}
		if snap != nil {
			snaps = append(snaps, snap)
			merged.Store(telemetry.Merge(snaps...))
		}
		for _, t := range tables {
			if err := t.Fprint(os.Stdout); err != nil {
				fatalf("%s: %v", id, err)
			}
		}
		if *csvDir != "" {
			if err := writeCSVs(*csvDir, id, tables); err != nil {
				fatalf("%s: %v", id, err)
			}
		}
	}
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if traceFile != nil {
		// A sink write failure means the JSONL stream on disk is silently
		// truncated; surface it rather than shipping a partial trace.
		if err := cfg.Tracer.Flush(); err != nil {
			fatalf("trace-out: %v", err)
		}
		if err := traceFile.Close(); err != nil {
			fatalf("trace-out: %v", err)
		}
		if err := cfg.Tracer.Err(); err != nil {
			fatalf("trace-out: event stream truncated: %v", err)
		}
	}
	if cfg.Tracer != nil {
		if n := cfg.Tracer.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "experiments: warning: tracer dropped %d event(s) (ring overwritten faster than drained)\n", n)
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
		merged := telemetry.Merge(snaps...)
		buf, err := json.MarshalIndent(merged, "", "  ")
		if err != nil {
			fatalf("metrics-out: %v", err)
		}
		if err := os.WriteFile(*metricsOut, append(buf, '\n'), 0o644); err != nil {
			fatalf("metrics-out: %v", err)
		}
	}
	if opsSrv != nil {
		if *opsLinger > 0 {
			// Interruptible linger: Ctrl-C must still reach opsSrv.Close so
			// open /trace/tail streams get their clean terminal event
			// instead of dying with the process.
			ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
			fmt.Fprintf(os.Stderr, "experiments: ops server lingering for %v on %s (Ctrl-C to stop)\n", *opsLinger, opsSrv.URL())
			select {
			case <-time.After(*opsLinger):
			case <-ctx.Done():
				fmt.Fprintln(os.Stderr, "experiments: interrupted, closing ops server")
			}
			stop()
		}
		if err := opsSrv.Close(); err != nil {
			fatalf("ops-addr: %v", err)
		}
	}
	if len(snaps) > 0 {
		// Decision-reason histograms over every telemetry-collecting
		// experiment in the sweep (the enumerated vocabulary makes these
		// comparable across runs and profiles).
		m := telemetry.Merge(snaps...)
		cli.PrintReasonLine("admit reasons:  ", m.Counters, "sim.admit_reason.")
		cli.PrintReasonLine("reject reasons: ", m.Counters, "sim.reject_reason.")
	}
	fmt.Printf("done in %v (profile=%s, %d traces x %d requests)\n",
		time.Since(start).Round(time.Millisecond), cfg.Profile.Name, cfg.Traces, cfg.TraceLen)
}

// run executes one experiment and returns its tables plus, for
// telemetry-collecting experiments, the merged metrics snapshot.
func run(id string, cfg experiments.Config, scaleSpecs []string) ([]*experiments.Table, *telemetry.Snapshot, error) {
	sweep := []float64{0.25, 0.5, 0.75, 1.0}
	switch id {
	case "motivational":
		r, err := experiments.Motivational()
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "milp-vs-heuristic":
		r, err := experiments.MILPvsHeuristic(cfg)
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "fig2a", "fig3b", "impact-lt":
		r, err := experiments.PredictionImpact(cfg, trace.LessTight)
		if err != nil {
			return nil, nil, err
		}
		switch id {
		case "fig2a":
			return []*experiments.Table{r.RejectionTable}, nil, nil
		case "fig3b":
			return []*experiments.Table{r.EnergyTable}, nil, nil
		}
		return []*experiments.Table{r.RejectionTable, r.EnergyTable}, nil, nil
	case "fig2b", "fig3a", "impact-vt":
		r, err := experiments.PredictionImpact(cfg, trace.VeryTight)
		if err != nil {
			return nil, nil, err
		}
		switch id {
		case "fig2b":
			return []*experiments.Table{r.RejectionTable}, nil, nil
		case "fig3a":
			return []*experiments.Table{r.EnergyTable}, nil, nil
		}
		return []*experiments.Table{r.RejectionTable, r.EnergyTable}, nil, nil
	case "fig4a":
		r, err := experiments.Fig4a(cfg, sweep)
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "fig4b":
		r, err := experiments.Fig4b(cfg, sweep)
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "fig5":
		r, err := experiments.Fig5(cfg, []float64{0, 0.01, 0.02, 0.04, 0.08, 0.25, 0.5, 1.0})
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "ablation-regret":
		r, err := experiments.AblationRegret(cfg)
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "ablation-migration":
		r, err := experiments.AblationMigration(cfg)
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "baseline-static":
		r, err := experiments.BaselineStatic(cfg)
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "lookahead":
		r, err := experiments.LookaheadSweep(cfg, []int{1, 2, 3, 4})
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "online-predictors":
		r, err := experiments.OnlinePredictors(cfg)
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "telemetry":
		r, err := experiments.TelemetryProbe(cfg)
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, r.Merged, nil
	case "load-surface":
		r, err := experiments.LoadSurface(cfg, []float64{1.2, 1.7, 2.2, 3.0, 4.5})
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "scale-sweep":
		r, err := experiments.ScaleSweep(cfg, scaleSpecs)
		if err != nil {
			return nil, nil, err
		}
		return []*experiments.Table{r.Table}, nil, nil
	case "fault-sweep":
		r, err := experiments.FaultSweep(cfg, []float64{0, 0.1, 0.25, 0.5})
		if err != nil {
			return nil, nil, err
		}
		var snaps []*telemetry.Snapshot
		for _, s := range r.PerRate {
			snaps = append(snaps, s)
		}
		return []*experiments.Table{r.Table}, telemetry.Merge(snaps...), nil
	default:
		return nil, nil, fmt.Errorf("unknown experiment id %q", id)
	}
}

// writeCSVs exports an experiment's tables into dir.
func writeCSVs(dir, id string, tables []*experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i, t := range tables {
		name := id
		if len(tables) > 1 {
			name = fmt.Sprintf("%s-%d", id, i+1)
		}
		f, err := os.Create(filepath.Join(dir, name+".csv"))
		if err != nil {
			return err
		}
		if err := t.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	return nil
}

// validateFlags rejects out-of-range workload parameters up front with
// actionable messages instead of failing deep inside the first experiment.
func validateFlags(traces, traceLen, nodes int) {
	switch {
	case traces <= 0:
		fatalf("-traces %d must be positive", traces)
	case traceLen <= 0:
		fatalf("-len %d must be positive", traceLen)
	case nodes < 0:
		fatalf("-exact-nodes %d must be non-negative (0 = solver default)", nodes)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "experiments: "+format+"\n", args...)
	os.Exit(1)
}
