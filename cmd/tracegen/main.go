// Command tracegen generates synthetic workload traces following the
// paper's Sec 5.1 methodology and writes them as JSON files — or, with
// -fire, replays a workload live against an rmserve instance as a load
// generator.
//
// Usage:
//
//	tracegen -out traces/ -count 10 -len 500 -group VT -seed 1
//	tracegen -out testdata/scale -count 1 -platform 64c8g -rate 2 -len 2000 -seed 42
//	tracegen -fire http://localhost:8080 -len 200 -seed 1 -fire-speed 50
//	tracegen -fire http://localhost:8080 -replay traces/trace-VT-000.json
//
// In fire mode each request is POSTed to /v1/requests when its arrival
// comes up on the replay clock (trace time divided by -fire-speed), and
// the synchronous admission decisions are tallied. -replay loads a
// recorded trace (serve rmserve the matching taskset.json so the type
// universe agrees); without it, one trace is generated in memory from
// the usual generator flags — the same workload identity either way, so
// a simulated run and a live serving run are directly comparable.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"predrm/cmd/internal/cli"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/task"
	"predrm/internal/trace"
)

func main() {
	var (
		out      = flag.String("out", ".", "output directory")
		count    = flag.Int("count", 10, "number of traces")
		length   = flag.Int("len", 500, "requests per trace")
		group    = flag.String("group", "VT", "deadline group: VT or LT")
		seed     = flag.Uint64("seed", 1, "generator seed")
		meanIA   = flag.Float64("interarrival", 1.2, "mean interarrival time")
		stdIA    = flag.Float64("interarrival-std", 0.4, "interarrival std deviation")
		rate     = flag.Float64("rate", 0, "arrival rate in requests per time unit; a scale-friendly alternative to -interarrival (sets mean 1/rate, std 1/(3*rate))")
		types    = flag.Int("types", 0, "task types in the generated set (0: sized to the platform, max(100, 2 per resource))")
		platSpec = flag.String("platform", "5c1g", "platform spec like 5c1g or 112c16g (pool counts per kind)")

		fireURL   = flag.String("fire", "", "replay the workload live against this rmserve base URL instead of writing files")
		replay    = flag.String("replay", "", "trace JSON file to fire (requires -fire; empty: generate one trace in memory)")
		fireSpeed = flag.Float64("fire-speed", 1, "replay compression for -fire: trace time units per real second")
		verbose   = flag.Bool("v", false, "print each decision in fire mode")
	)
	flag.Parse()
	if *fireURL == "" && (*replay != "" || cli.FlagWasSet("fire-speed") || *verbose) {
		fatalf("-replay, -fire-speed and -v only apply with -fire")
	}
	if *fireSpeed <= 0 {
		fatalf("-fire-speed %g must be positive", *fireSpeed)
	}
	if *fireURL != "" && *replay != "" {
		tr, err := trace.ReadFile(*replay)
		if err != nil {
			fatalf("load trace: %v", err)
		}
		fire(*fireURL, tr, *fireSpeed, *verbose)
		return
	}
	if *rate != 0 {
		if cli.FlagWasSet("interarrival") || cli.FlagWasSet("interarrival-std") {
			fatalf("-rate and -interarrival/-interarrival-std are two spellings of the same knob; give one")
		}
		if *rate < 0 {
			fatalf("-rate %g must be positive", *rate)
		}
		*meanIA = 1 / *rate
		*stdIA = *meanIA / 3
	}
	plat, err := platform.Parse(*platSpec)
	if err != nil {
		fatalf("platform: %v", err)
	}
	if *types == 0 {
		// Size the type mix to the platform: a 512-resource machine needs a
		// wider mix than the paper's 100 types to load every pool.
		*types = 2 * plat.Len()
		if *types < 100 {
			*types = 100
		}
	}
	validateFlags(*count, *length, *types, *meanIA, *stdIA)

	var tight trace.Tightness
	switch *group {
	case "VT", "vt":
		tight = trace.VeryTight
	case "LT", "lt":
		tight = trace.LessTight
	default:
		fatalf("unknown group %q (want VT or LT)", *group)
	}

	root := rng.New(*seed)
	tcfg := task.DefaultGenConfig()
	tcfg.NumTypes = *types
	set, err := task.Generate(plat, tcfg, root.Split())
	if err != nil {
		fatalf("generate task set: %v", err)
	}

	gcfg := trace.GenConfig{
		Length:           *length,
		InterarrivalMean: *meanIA,
		InterarrivalStd:  *stdIA,
		Tightness:        tight,
	}
	if *fireURL != "" {
		tr, err := trace.Generate(set, gcfg, root.Split())
		if err != nil {
			fatalf("generate trace: %v", err)
		}
		fire(*fireURL, tr, *fireSpeed, *verbose)
		return
	}
	traces, err := trace.GenerateGroup(set, gcfg, *count, root.Split())
	if err != nil {
		fatalf("generate traces: %v", err)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatalf("create output dir: %v", err)
	}
	setPath := filepath.Join(*out, "taskset.json")
	if err := set.WriteFile(setPath); err != nil {
		fatalf("write task set: %v", err)
	}
	fmt.Printf("%s  (%d types on %s)\n", setPath, set.Len(), plat)
	for i, tr := range traces {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-%03d.json", tight, i))
		if err := tr.WriteFile(path); err != nil {
			fatalf("write %s: %v", path, err)
		}
		fmt.Printf("%s  (%d requests, mean interarrival %.3f)\n", path, tr.Len(), tr.MeanInterarrival())
	}
}

// validateFlags rejects out-of-range generator parameters up front with
// actionable messages instead of failing inside the generators.
func validateFlags(count, length, types int, meanIA, stdIA float64) {
	switch {
	case count <= 0:
		fatalf("-count %d must be positive", count)
	case length <= 0:
		fatalf("-len %d must be positive", length)
	case types <= 0:
		fatalf("-types %d must be positive", types)
	case meanIA <= 0:
		fatalf("-interarrival %g must be positive", meanIA)
	case stdIA < 0:
		fatalf("-interarrival-std %g must be non-negative", stdIA)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracegen: "+format+"\n", args...)
	os.Exit(1)
}
