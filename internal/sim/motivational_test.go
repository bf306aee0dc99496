package sim

import (
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/task"
	"predrm/internal/trace"
)

// TestMotivationalEndToEnd drives the paper's Sec 3 example through the
// full simulator: without prediction τ2 must be rejected (acceptance 1/2);
// with a perfect oracle both are accepted (acceptance 2/2).
func TestMotivationalEndToEnd(t *testing.T) {
	set := task.Motivational()
	tr := &trace.Trace{Requests: []trace.Request{
		{Arrival: 0, Type: 0, Deadline: 8},
		{Arrival: 1, Type: 1, Deadline: 5},
	}}
	if err := tr.Validate(set); err != nil {
		t.Fatal(err)
	}

	cfg := engine.Config{Platform: set.Platform, TaskSet: set, Solver: &core.Heuristic{}, Audit: true}
	off, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if off.Accepted != 1 || off.Rejected != 1 {
		t.Fatalf("no prediction: accepted %d rejected %d, want 1/1", off.Accepted, off.Rejected)
	}

	o, err := predict.NewOracle(tr, predict.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Predictor = o
	on, err := Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if on.Accepted != 2 {
		t.Fatalf("with prediction: accepted %d, want 2 (jobs: %+v)", on.Accepted, on.Jobs)
	}
	if on.DeadlineMisses != 0 {
		t.Fatal("deadline misses in scenario (b)")
	}
}

// TestReservationSemantics documents a structural property of the paper's
// formulation: predicted-task reservations act through *mapping steering*
// only (see TestMotivationalEndToEnd), never through inserted idle time —
// the EDF dispatch inside the planner is work-conserving, exactly like the
// MILP's constraints (4)-(14). Consequently a tight task whose only
// resource is blocked by an already-pinned job cannot be saved by
// prediction at the following arrival.
func TestReservationSemantics(t *testing.T) {
	// Platform: 1 CPU + 1 GPU. Types (index order CPU, GPU):
	//   0: long flexible job   WCET {30, 10}, energy {10, 2}
	//   1: tight GPU-only job  WCET {NE, 5},  energy {NE, 1}
	set := &task.Set{
		Platform: platform.New(1, 1),
		Types: []*task.Type{
			{ID: 0, WCET: []float64{30, 10}, Energy: []float64{10, 2}},
			{ID: 1, WCET: []float64{task.NotExecutable, 5}, Energy: []float64{task.NotExecutable, 1}},
		},
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	// Request 0: long job at t=0, deadline 60 (fits either resource).
	// Request 1: another long job at t=1, deadline 61.
	// Request 2: tight GPU-only job at t=4, deadline 7.
	// With lookahead-1 prediction at request 1, the RM knows the GPU must
	// stay free from t=4: the second long job must not start on the GPU.
	tr := &trace.Trace{Requests: []trace.Request{
		{Arrival: 0, Type: 0, Deadline: 60},
		{Arrival: 1, Type: 0, Deadline: 61},
		{Arrival: 4, Type: 1, Deadline: 7},
	}}
	if err := tr.Validate(set); err != nil {
		t.Fatal(err)
	}

	o, err := predict.NewOracle(tr, predict.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	planned, err := Run(engine.Config{
		Platform:  set.Platform,
		TaskSet:   set,
		Solver:    &core.Heuristic{},
		Predictor: o,
		Audit:     true,
	}, tr)
	if err != nil {
		t.Fatal(err)
	}
	// The prediction at request 1 cannot save request 2: job 0 is pinned
	// on the GPU until t=10, past the tight task's deadline, with or
	// without a reservation.
	if planned.Accepted != 2 {
		t.Fatalf("accepted %d, want 2", planned.Accepted)
	}
	if planned.DeadlineMisses != 0 {
		t.Fatal("deadline misses")
	}
}
