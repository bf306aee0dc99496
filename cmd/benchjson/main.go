// Command benchjson converts `go test -bench -benchmem` output into a
// machine-readable JSON summary while passing the original text through,
// so one run feeds both the terminal and tooling:
//
//	go test -bench=. -benchmem ./... | benchjson -out BENCH.json
//
// The JSON records, per benchmark: package, name (GOMAXPROCS suffix
// stripped), iterations, ns/op, and — when -benchmem was given — B/op and
// allocs/op. Lines that are not benchmark results (goos/pkg headers, PASS,
// ok) are echoed but otherwise ignored.
//
// With -compare the tool additionally acts as a regression gate: the
// parsed results are checked against a previously written baseline, and
// any hot-path benchmark (selected by -hot) that got slower than
// -ns-threshold, or that allocates more per op than it used to, fails the
// run with a non-zero exit. Hot benchmarks missing from the baseline are
// reported as NEW and pass, so adding a benchmark does not fail the gate
// before the baseline is regenerated. Baseline-only hot benchmarks are
// reported as MISSING and warn by default — a subset run can be gated
// against a full baseline — and fail the run under -fail-missing, which
// catches a hot benchmark being silently dropped or renamed:
//
//	go test -bench='HeuristicSolve' -benchmem ./internal/exact/ |
//	    benchjson -out= -compare BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// defaultHot selects the decision hot-path benchmarks: the solver entry
// points, the per-activation feasibility probes, and the end-to-end
// simulation run. Sub-benchmarks (Name/case) are matched by the ($|/),
// so each name must be listed whole: OptimalSolveWide, the exact search
// on contended 14-job instances, is not covered by OptimalSolve.
const defaultHot = `^(HeuristicSolve|HeuristicRepair|OptimalSolve|OptimalSolveWide|OptimalWarmStart|Run|ResourceFeasible|SimulateEDF|FeasibleSorted)($|/)`

// Benchmark is one parsed result line.
type Benchmark struct {
	// Pkg is the import path from the preceding "pkg:" header.
	Pkg string `json:"pkg"`
	// Name is the benchmark name without the Benchmark prefix and the
	// -GOMAXPROCS suffix.
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the reported ns/op (fractional for sub-ns operations).
	NsPerOp float64 `json:"ns_per_op"`
	// BytesPerOp and AllocsPerOp come from -benchmem; nil when absent.
	BytesPerOp  *int64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *int64 `json:"allocs_per_op,omitempty"`
}

func main() {
	out := flag.String("out", "BENCH.json", "write the JSON summary to this file (empty: don't write)")
	compareWith := flag.String("compare", "", "baseline JSON to gate against; regressions exit non-zero")
	nsThreshold := flag.Float64("ns-threshold", 0.15, "allowed fractional ns/op increase on hot benchmarks")
	hot := flag.String("hot", defaultHot, "regexp selecting the hot-path benchmarks the gate applies to")
	failMissing := flag.Bool("fail-missing", false, "treat hot baseline benchmarks missing from the run as regressions (default: warn only, so a package-subset run can be gated against a full baseline)")
	flag.Parse()

	hotRe, err := regexp.Compile(*hot)
	if err != nil {
		fatalf("bad -hot regexp: %v", err)
	}

	var (
		benches []Benchmark
		pkg     string
	)
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		fmt.Println(line)
		if p, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(p)
			continue
		}
		if b, ok := parseBench(pkg, line); ok {
			benches = append(benches, b)
		}
	}
	if err := sc.Err(); err != nil {
		fatalf("read stdin: %v", err)
	}

	if *out != "" {
		buf, err := json.MarshalIndent(map[string]any{"benchmarks": benches}, "", "  ")
		if err != nil {
			fatalf("encode: %v", err)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fatalf("write %s: %v", *out, err)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmark(s) -> %s\n", len(benches), *out)
	}

	if *compareWith != "" {
		baseline, err := loadBaseline(*compareWith)
		if err != nil {
			fatalf("%v", err)
		}
		regressions, compared, fresh, missing := compare(baseline, benches, hotRe, *nsThreshold)
		if compared == 0 && len(fresh) == 0 {
			fatalf("compare %s: no hot benchmarks in common with the baseline", *compareWith)
		}
		for _, name := range fresh {
			fmt.Fprintf(os.Stderr, "benchjson: NEW: %s (not in baseline, no gate applied — refresh the baseline to start gating it)\n", name)
		}
		for _, name := range missing {
			if *failMissing {
				regressions = append(regressions, fmt.Sprintf(
					"%s: in the baseline but missing from this run (-fail-missing)", name))
			} else {
				fmt.Fprintf(os.Stderr, "benchjson: MISSING: %s (in the baseline but not in this run — a dropped or renamed hot benchmark evades the gate; expected for package-subset runs)\n", name)
			}
		}
		for _, msg := range regressions {
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION: %s\n", msg)
		}
		if len(regressions) > 0 {
			fatalf("%d regression(s) vs %s (threshold +%.0f%% ns/op, +0 allocs/op)",
				len(regressions), *compareWith, *nsThreshold*100)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d hot benchmark(s) within budget of %s, %d new, %d baseline-only\n",
			compared, *compareWith, len(fresh), len(missing))
	}
}

// loadBaseline reads a JSON summary previously written by -out.
func loadBaseline(path string) ([]Benchmark, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		Benchmarks []Benchmark `json:"benchmarks"`
	}
	if err := json.Unmarshal(buf, &doc); err != nil {
		return nil, fmt.Errorf("parse %s: %v", path, err)
	}
	return doc.Benchmarks, nil
}

// compare gates cur against base: for every hot benchmark present on both
// sides, the ns/op may not grow by more than nsThreshold (fractional) and
// allocs/op may not grow at all. It returns the regression descriptions,
// the number of benchmarks actually compared, the hot benchmarks that are
// new — present in cur but absent from the baseline — and the hot
// benchmarks that are missing — present in the baseline but absent from
// cur. New benchmarks pass (there is nothing to regress against yet).
// Missing ones are the caller's call: a package-subset run legitimately
// skips baseline benchmarks, but a silently dropped or renamed hot
// benchmark evades the gate, so they are at least reported (-fail-missing
// upgrades them to failures).
func compare(base, cur []Benchmark, hot *regexp.Regexp, nsThreshold float64) (regressions []string, compared int, fresh, missing []string) {
	old := make(map[string]Benchmark, len(base))
	for _, b := range base {
		old[b.Pkg+"."+b.Name] = b
	}
	seen := make(map[string]bool, len(cur))
	for _, b := range cur {
		if !hot.MatchString(b.Name) {
			continue
		}
		key := b.Pkg + "." + b.Name
		seen[key] = true
		prev, ok := old[key]
		if !ok {
			fresh = append(fresh, key)
			continue
		}
		compared++
		if prev.NsPerOp > 0 && b.NsPerOp > prev.NsPerOp*(1+nsThreshold) {
			regressions = append(regressions, fmt.Sprintf(
				"%s %s: %.1f ns/op, baseline %.1f (+%.0f%% > +%.0f%% budget)",
				b.Pkg, b.Name, b.NsPerOp, prev.NsPerOp,
				(b.NsPerOp/prev.NsPerOp-1)*100, nsThreshold*100))
		}
		if prev.AllocsPerOp != nil && b.AllocsPerOp != nil && *b.AllocsPerOp > *prev.AllocsPerOp {
			regressions = append(regressions, fmt.Sprintf(
				"%s %s: %d allocs/op, baseline %d (allocation budget is +0)",
				b.Pkg, b.Name, *b.AllocsPerOp, *prev.AllocsPerOp))
		}
	}
	for _, b := range base {
		key := b.Pkg + "." + b.Name
		if hot.MatchString(b.Name) && !seen[key] {
			missing = append(missing, key)
		}
	}
	sort.Strings(missing)
	return regressions, compared, fresh, missing
}

// parseBench decodes one "BenchmarkX-8  N  T ns/op [B B/op  A allocs/op]"
// line; ok is false for anything else.
func parseBench(pkg, line string) (Benchmark, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return Benchmark{}, false
	}
	name := strings.TrimPrefix(fields[0], "Benchmark")
	if i := strings.LastIndex(name, "-"); i > 0 {
		if _, err := strconv.Atoi(name[i+1:]); err == nil {
			name = name[:i]
		}
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false
	}
	b := Benchmark{Pkg: pkg, Name: name, Iterations: iters}
	// The remainder is "value unit" pairs.
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		v, unit := fields[i], fields[i+1]
		switch unit {
		case "ns/op":
			if b.NsPerOp, err = strconv.ParseFloat(v, 64); err != nil {
				return Benchmark{}, false
			}
			seen = true
		case "B/op":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Benchmark{}, false
			}
			b.BytesPerOp = &n
		case "allocs/op":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return Benchmark{}, false
			}
			b.AllocsPerOp = &n
		}
	}
	return b, seen
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchjson: "+format+"\n", args...)
	os.Exit(1)
}
