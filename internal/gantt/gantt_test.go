package gantt

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sim"
	"predrm/internal/task"
	"predrm/internal/trace"
)

func TestNewValidation(t *testing.T) {
	plat := platform.Motivational()
	if _, err := New(nil, nil); err == nil {
		t.Error("accepted nil platform")
	}
	if _, err := New(plat, nil); err == nil {
		t.Error("accepted empty segments")
	}
	if _, err := New(plat, []engine.ExecSegment{{Resource: 9, Start: 0, End: 1}}); err == nil {
		t.Error("accepted unknown resource")
	}
	if _, err := New(plat, []engine.ExecSegment{{Resource: 0, Start: 2, End: 1}}); err == nil {
		t.Error("accepted inverted segment")
	}
}

func TestRenderAndLegend(t *testing.T) {
	plat := platform.Motivational()
	segs := []engine.ExecSegment{
		{Resource: 0, JobID: 0, Start: 0, End: 8},
		{Resource: 2, JobID: 1, Start: 1, End: 4},
	}
	c, err := New(plat, segs)
	if err != nil {
		t.Fatal(err)
	}
	from, to := c.Span()
	if from != 0 || to != 8 {
		t.Fatalf("span [%v, %v]", from, to)
	}
	var buf bytes.Buffer
	if err := c.Render(&buf, 40); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"CPU1", "CPU2", "GPU1", "legend:", "0=job0", "1=job1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// CPU2 is fully idle.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "CPU2") && strings.Contains(line, "0") {
			t.Fatalf("idle resource shows work: %s", line)
		}
	}
}

func TestRenderDefaultColumns(t *testing.T) {
	plat := platform.Motivational()
	c, err := New(plat, []engine.ExecSegment{{Resource: 0, JobID: 3, Start: 0, End: 1}})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Render(&buf, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), strings.Repeat("3", 10)) {
		t.Fatal("default-width render wrong")
	}
}

func TestWriteTSV(t *testing.T) {
	plat := platform.Motivational()
	c, err := New(plat, []engine.ExecSegment{
		{Resource: 2, JobID: 7, Start: 1.5, End: 2.25},
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	want := "resource\tjob\tstart\tend\nGPU1\t7\t1.500000\t2.250000\n"
	if buf.String() != want {
		t.Fatalf("TSV = %q", buf.String())
	}
}

func TestUtilization(t *testing.T) {
	plat := platform.Motivational()
	c, err := New(plat, []engine.ExecSegment{
		{Resource: 0, JobID: 0, Start: 0, End: 5},
		{Resource: 2, JobID: 1, Start: 0, End: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	u := c.Utilization()
	if math.Abs(u[0]-0.5) > 1e-12 || u[1] != 0 || math.Abs(u[2]-1) > 1e-12 {
		t.Fatalf("utilization = %v", u)
	}
}

// TestEndToEndFromSimulator renders a real recorded execution and checks
// the recorded occupancy against the simulator's energy accounting.
func TestEndToEndFromSimulator(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	gcfg := trace.DefaultGenConfig(trace.VeryTight)
	gcfg.Length = 40
	gcfg.InterarrivalMean = 4
	gcfg.InterarrivalStd = 1
	tr, err := trace.Generate(set, gcfg, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	o, err := predict.NewOracle(tr, predict.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len(), Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(engine.Config{
		Platform:        plat,
		TaskSet:         set,
		Solver:          &core.Heuristic{},
		Predictor:       o,
		RecordExecution: true,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Execution) == 0 {
		t.Fatal("no execution recorded")
	}
	c, err := New(plat, res.Execution)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Render(&buf, 100); err != nil {
		t.Fatal(err)
	}
	if len(strings.Split(buf.String(), "\n")) < plat.Len()+2 {
		t.Fatalf("render too short:\n%s", buf.String())
	}
	// Every accepted job's recorded occupancy must be positive; rejected
	// jobs must not appear.
	occupancy := map[int]float64{}
	for _, s := range res.Execution {
		occupancy[s.JobID] += s.End - s.Start
	}
	for _, j := range res.Jobs {
		if j.Accepted && occupancy[j.ID] <= 0 {
			t.Errorf("accepted job %d has no recorded execution", j.ID)
		}
		if !j.Accepted && occupancy[j.ID] > 0 {
			t.Errorf("rejected job %d appears in the execution record", j.ID)
		}
	}
}

// WriteTSV exports the segments as tab-separated values (resource name,
// job id, start, end) for external plotting.
func (c *Chart) WriteTSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "resource\tjob\tstart\tend"); err != nil {
		return err
	}
	for _, s := range c.segs {
		if _, err := fmt.Fprintf(w, "%s\t%d\t%.6f\t%.6f\n",
			c.plat.Resource(s.Resource).Name, s.JobID, s.Start, s.End); err != nil {
			return err
		}
	}
	return nil
}
