package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// host identifies the machine a run record was measured on; timings
// from different hosts are not comparable.
type host struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	GOARCH     string `json:"goarch"`
	CPU        string `json:"cpu"`
}

func hostStamp() host {
	return host{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		GOARCH:     runtime.GOARCH,
		CPU:        cpuModel(),
	}
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// verdict is the outcome of comparing one (workload, metric) pair.
type verdict string

const (
	same       verdict = "ok"
	better     verdict = "better"
	regression verdict = "REGRESSION"
	unresolved verdict = "unresolved"
)

// judge compares a metric of a new run against the base run. A change
// past the bound in the bad direction is a regression; if either run's
// spread over rounds (IQR over median) exceeds the bound the pair is
// unresolved instead, unless every round of the new run is better than
// every round of the base.
func judge(d metricDef, base, cur value) (verdict, float64) {
	worse := (cur.Value - base.Value) / base.Value
	if d.Better == "higher" {
		worse = -worse
	}
	spread := max(base.IQR/base.Value, cur.IQR/cur.Value)
	switch {
	case spread > d.Bound && !dominates(d, cur.Rounds, base.Rounds):
		return unresolved, worse
	case worse > d.Bound:
		return regression, worse
	case worse < -d.Bound:
		return better, worse
	}
	return same, worse
}

// dominates reports whether every value of a is better than every value
// of b.
func dominates(d metricDef, a, b []float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	for _, x := range a {
		for _, y := range b {
			if (d.Better == "lower" && x >= y) || (d.Better == "higher" && x <= y) {
				return false
			}
		}
	}
	return true
}

func readRecord(path string) (*runRecord, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r runRecord
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// inputs describes what a run record measured. Two records are comparable
// only when they measured the same inputs the same way.
func (r *runRecord) inputs() string {
	s := fmt.Sprintf("seed %d, seconds %d, quick %v", r.Seed, r.Seconds, r.Quick)
	for _, w := range r.Workloads {
		s += fmt.Sprintf("; %s: %d traces x %d requests, %d rounds", w.Name, w.Traces, w.Requests, w.Rounds)
	}
	return s
}

// runCompare prints every (workload, end-to-end metric) pair of two run
// records with both medians and IQRs and a verdict. It returns exit
// status 1 when any pair regressed, and an error for records from
// different hosts or of different inputs.
func runCompare(args []string, w io.Writer) (int, error) {
	if len(args) != 2 {
		return 0, fmt.Errorf("--compare takes two run records: base.json new.json")
	}
	base, err := readRecord(args[0])
	if err != nil {
		return 0, err
	}
	cur, err := readRecord(args[1])
	if err != nil {
		return 0, err
	}
	if base.Host != cur.Host {
		return 0, fmt.Errorf("refusing to compare runs from different hosts:\n  %s: %+v\n  %s: %+v", args[0], base.Host, args[1], cur.Host)
	}
	if base.inputs() != cur.inputs() {
		return 0, fmt.Errorf("refusing to compare runs of different inputs:\n  %s: %s\n  %s: %s", args[0], base.inputs(), args[1], cur.inputs())
	}
	fmt.Fprintf(w, "base %s, new %s, host %+v\n%s\n", args[0], args[1], base.Host, base.inputs())
	counts := map[verdict]int{}
	for i, bw := range base.Workloads {
		cw := cur.Workloads[i]
		fmt.Fprintf(w, "%s\n", bw.Name)
		for _, d := range endToEnd {
			if seedFixed[d.Name] {
				d.Bound = exactBound
			}
			b, c := bw.Metrics[d.Name], cw.Metrics[d.Name]
			v, worse := judge(d, b, c)
			counts[v]++
			fmt.Fprintf(w, "  %-26s %12.4f [IQR %9.4f]  %12.4f [IQR %9.4f]  worse %+7.2f%%  bound %4.0f%%  %s\n",
				d.Name, b.Value, b.IQR, c.Value, c.IQR, 100*worse, 100*d.Bound, v)
		}
	}
	fmt.Fprintf(w, "%d regression(s), %d unresolved, %d better, %d ok\n",
		counts[regression], counts[unresolved], counts[better], counts[same])
	if counts[regression] > 0 {
		return 1, nil
	}
	return 0, nil
}
