// Command bench is predrm's end-to-end benchmark. It generates its inputs
// from --seed with the repository's generators, drives them through the
// activation engine, the exact solver, the sharded engine and the HTTP
// server in a closed loop, checks every decision against the simulator,
// and prints every metric by name and unit. A traced run times the calls
// into each layer from outside and derives the per-layer metrics.
//
// Run it from the repository root:
//
//	bash bench/run.sh --seed 1 --out .bench_build/a.json   # every workload, then the traced run
//	bash bench/run.sh --workload serve-http --trace 0
//	bash bench/run.sh --compare .bench_build/a.json .bench_build/b.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. Any failed check ends the run
// with exit status 1 and a message naming the workload, trace and request.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	var (
		wlName   = flag.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames(), ", "))
		seed     = flag.Uint64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Int("seconds", 15, "measured seconds per workload on the reference host; sets the trace count")
		traceArg = flag.String("trace", "", "0: end-to-end metrics only; 1: the traced run's per-layer metrics only; empty: both")
		out      = flag.String("out", "", "write the run record (host, rounds, medians, IQRs) as JSON to this file")
		spanOut  = flag.String("trace-out", "", "write the traced run's spans as JSON to this file")
		quick    = flag.Bool("quick", false, "smoke size: 1 trace of 200 requests per workload")
		compare  = flag.Bool("compare", false, "compare two run records given as arguments: --compare base.json new.json")
	)
	flag.Parse()
	if *compare {
		code, err := runCompare(flag.Args(), os.Stdout)
		if err != nil {
			fatalf("%v", err)
		}
		os.Exit(code)
	}
	if flag.NArg() > 0 {
		fatalf("unexpected arguments %q", flag.Args())
	}
	c := config{seed: *seed, seconds: *seconds, quick: *quick}
	switch *traceArg {
	case "":
		c.e2e, c.traced = true, true
	case "0":
		c.e2e = true
	case "1":
		c.traced = true
	default:
		fatalf("--trace %q: want 0, 1 or empty", *traceArg)
	}
	if *seconds < 1 {
		fatalf("--seconds %d must be at least 1", *seconds)
	}
	if *wlName == "all" {
		c.workloads = workloads
	} else {
		w, ok := workloadByName(*wlName)
		if !ok {
			fatalf("unknown workload %q (want all, %s)", *wlName, strings.Join(workloadNames(), ", "))
		}
		c.workloads = []*workload{w}
	}
	if *spanOut != "" && !c.traced {
		fatalf("--trace-out needs the traced run (--trace 1 or empty)")
	}

	rec, spans, err := run(c)
	if err != nil {
		fatalf("%v", err)
	}
	if *out != "" {
		rec.Host = hostStamp()
		if err := writeJSON(*out, rec); err != nil {
			fatalf("%v", err)
		}
	}
	if *spanOut != "" {
		if err := writeSpans(*spanOut, spans); err != nil {
			fatalf("%v", err)
		}
	}
	if err := report(os.Stdout, rec); err != nil {
		fatalf("%v", err)
	}
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// lineMetric is one metric on the result line.
type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report prints a table of every metric and then, as the last line, the
// result object. Metric keys are plain names when one workload ran and
// "workload/metric" when several did.
func report(w io.Writer, rec *runRecord) error {
	metrics := map[string]lineMetric{}
	for _, wr := range rec.Workloads {
		fmt.Fprintf(w, "%s: %d traces x %d requests, %d rounds, %d decisions\n",
			wr.Name, wr.Traces, wr.Requests, wr.Rounds, wr.Decisions)
		for _, d := range endToEnd {
			v := wr.Metrics[d.Name]
			fmt.Fprintf(w, "  %-26s %14.4f %-6s IQR %.4f\n", d.Name, v.Value, v.Unit, v.IQR)
			key := d.Name
			if len(rec.Workloads) > 1 {
				key = wr.Name + "/" + d.Name
			}
			metrics[key] = lineMetric{Value: v.Value, Unit: v.Unit}
		}
		for _, name := range sortedKeys(wr.Info) {
			fmt.Fprintf(w, "  %-26s %14.4f (not gated)\n", name, wr.Info[name])
		}
	}
	if rec.Traced != nil {
		fmt.Fprintf(w, "traced run (traces per workload: %v)\n", rec.Traced.Traces)
		for _, d := range perLayer {
			v := rec.Traced.Metrics[d.Name]
			fmt.Fprintf(w, "  %-38s %14.4f %s\n", d.Name, v.Value, v.Unit)
			metrics[d.Name] = lineMetric{Value: v.Value, Unit: v.Unit}
		}
	}
	line, err := json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}{true, rec.Attempted, rec.Failed, metrics})
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}
