package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// resultLine decodes the last line report printed.
func resultLine(t *testing.T, out string) (correct bool, attempted int, metrics map[string]lineMetric) {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]lineMetric `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if res.Failed != 0 {
		t.Errorf("failed = %d", res.Failed)
	}
	return res.Correct, res.Attempted, res.Metrics
}

// TestQuickRun runs every workload at smoke size, end to end and traced,
// through the same correctness gate as a full run.
func TestQuickRun(t *testing.T) {
	rec, spans, err := run(config{workloads: workloads, seed: 3, seconds: 1, e2e: true, traced: true, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(&out, rec); err != nil {
		t.Fatal(err)
	}
	correct, attempted, metrics := resultLine(t, out.String())
	if !correct || attempted < len(workloads)*quickReqs {
		t.Errorf("correct = %v, attempted = %d", correct, attempted)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			m, ok := metrics[w.name+"/"+d.Name]
			if !ok || m.Unit != d.Unit || !(m.Value > 0) {
				t.Errorf("%s/%s: got %+v (present %v), want a positive value in %s", w.name, d.Name, m, ok, d.Unit)
			}
		}
		if len(spans[w.name]) == 0 {
			t.Errorf("%s: traced run recorded no spans", w.name)
		}
	}
	for _, d := range perLayer {
		if m, ok := metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("%s: got %+v (present %v), want unit %s", d.Name, m, ok, d.Unit)
		}
	}
}

// TestResultLineOneWorkload checks the single-workload form: one workload,
// plain metric names, only the end-to-end metrics with --trace 0.
func TestResultLineOneWorkload(t *testing.T) {
	w, _ := workloadByName("paper-vt-heuristic")
	rec, _, err := run(config{workloads: []*workload{w}, seed: 1, seconds: 1, e2e: true, quick: true})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := report(&out, rec); err != nil {
		t.Fatal(err)
	}
	_, _, metrics := resultLine(t, out.String())
	want := map[string]bool{}
	for _, d := range endToEnd {
		want[d.Name] = true
	}
	if got := sortedKeys(metrics); !reflect.DeepEqual(got, sortedKeys(want)) {
		t.Errorf("metric names %v, want %v", got, sortedKeys(want))
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the tables the
// program reports from equal.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spec.Paths, []string{"bench"}) || len(spec.Command) == 0 {
		t.Errorf("command %q, paths %q", spec.Command, spec.Paths)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the code", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the code %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(spec.EndToEnd, endToEnd) {
		t.Errorf("end_to_end:\n%+v\nthe code:\n%+v", spec.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(spec.PerLayer, perLayer) {
		t.Errorf("per_layer:\n%+v\nthe code:\n%+v", spec.PerLayer, perLayer)
	}
}
