package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "decision_p50_us", Unit: "us", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "decisions_per_s", Unit: "1/s", Better: "higher", Bound: 0.10}
	v := func(x, iqr float64, rounds ...float64) value { return value{Value: x, IQR: iqr, Rounds: rounds} }
	for _, c := range []struct {
		name      string
		d         metricDef
		base, cur value
		want      verdict
	}{
		{"within-bound", lower, v(100, 2), v(105, 2), same},
		{"regression", lower, v(100, 2), v(115, 2), regression},
		{"better", lower, v(100, 2), v(80, 2), better},
		{"higher-is-better-regression", higher, v(1000, 10), v(850, 10), regression},
		{"higher-is-better-gain", higher, v(1000, 10), v(1200, 10), better},
		// Either side's rounds spreading wider than the bound leaves the
		// pair unresolved, whichever way the medians moved.
		{"unresolved-base", lower, v(100, 15), v(130, 2), unresolved},
		{"unresolved-new", lower, v(100, 2), v(100, 20), unresolved},
		// Unless every round of the new run beats every round of the base.
		{"wide-but-dominating", lower, v(100, 15, 90, 100, 110), v(70, 10, 60, 70, 80), better},
		{"wide-and-overlapping", lower, v(100, 15, 90, 100, 110), v(70, 10, 60, 70, 95), unresolved},
	} {
		if got, _ := judge(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s: judge = %s, want %s", c.name, got, c.want)
		}
	}
}

// writeRecord writes a one-workload run record whose metrics all read 10,
// after edit has changed it.
func writeRecord(t *testing.T, edit func(*runRecord)) string {
	t.Helper()
	rec := runRecord{
		Host:      host{NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0", GOARCH: "amd64", CPU: "test cpu"},
		Seed:      1,
		Seconds:   15,
		Workloads: []workloadRecord{{Name: "paper-vt-heuristic", Traces: 60, Requests: 2000, Rounds: 5, Metrics: map[string]value{}}},
	}
	for _, d := range endToEnd {
		v := value{Value: 10, Unit: d.Unit, IQR: 0.1}
		if seedFixed[d.Name] {
			v.IQR = 0
		}
		rec.Workloads[0].Metrics[d.Name] = v
	}
	edit(&rec)
	path := filepath.Join(t.TempDir(), "run.json")
	if err := writeJSON(path, rec); err != nil {
		t.Fatal(err)
	}
	return path
}

// setMetric returns an edit that sets one metric of the record.
func setMetric(name string, v value) func(*runRecord) {
	return func(r *runRecord) { r.Workloads[0].Metrics[name] = v }
}

func TestRunCompare(t *testing.T) {
	base := writeRecord(t, func(*runRecord) {})
	for _, c := range []struct {
		name string
		edit func(*runRecord)
		code int
		want string
	}{
		{"same-speed", setMetric("decision_p50_us", value{Value: 10.2, IQR: 0.1}), 0, "0 regression(s), 0 unresolved, 0 better"},
		{"regression", setMetric("decision_p50_us", value{Value: 15, IQR: 0.1}), 1, "1 regression(s)"},
		{"unresolved", setMetric("decision_p50_us", value{Value: 10, IQR: 4}), 0, "1 unresolved"},
		// The seed fixes rejections and energy, so any worsening regresses,
		// however far inside the BENCHMARK.json bound.
		{"rejections-exact", setMetric("rejection_pct", value{Value: 10.01}), 1, "1 regression(s)"},
		{"energy-exact-better", setMetric("energy_per_accepted_j", value{Value: 9.99}), 0, "0 regression(s), 0 unresolved, 1 better"},
	} {
		var out bytes.Buffer
		code, err := runCompare([]string{base, writeRecord(t, c.edit)}, &out)
		if err != nil || code != c.code || !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: code %d (want %d), err %v, output lacks %q:\n%s", c.name, code, c.code, err, c.want, out.String())
		}
	}
}

// TestRunCompareRefuses checks that records from another host, or of other
// inputs, are not compared at all.
func TestRunCompareRefuses(t *testing.T) {
	base := writeRecord(t, func(*runRecord) {})
	for _, c := range []struct {
		name string
		edit func(*runRecord)
		want string
	}{
		{"host", func(r *runRecord) { r.Host.CPU = "another cpu" }, "different hosts"},
		{"seed", func(r *runRecord) { r.Seed = 2 }, "different inputs"},
		{"seconds", func(r *runRecord) { r.Seconds = 10 }, "different inputs"},
		{"quick", func(r *runRecord) { r.Quick = true }, "different inputs"},
		{"traces", func(r *runRecord) { r.Workloads[0].Traces = 59 }, "different inputs"},
		{"requests", func(r *runRecord) { r.Workloads[0].Requests = 200 }, "different inputs"},
		{"workloads", func(r *runRecord) { r.Workloads[0].Name = "serve-http" }, "different inputs"},
	} {
		var out bytes.Buffer
		if _, err := runCompare([]string{base, writeRecord(t, c.edit)}, &out); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err %v, want a refusal naming %q", c.name, err, c.want)
		}
	}
}
