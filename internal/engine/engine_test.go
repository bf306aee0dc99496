package engine

import (
	"errors"
	"math"
	"testing"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/task"
	"predrm/internal/trace"
)

// TestActivateRejectsNonFinite: a NaN or infinite arrival or deadline is
// refused with trace's named error on both entry points, before anything
// is recorded, instead of being admitted against a deadline that can
// never be missed.
func TestActivateRejectsNonFinite(t *testing.T) {
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Platform: platform.Default(), TaskSet: set, Solver: &core.Heuristic{}})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		req  trace.Request
		want error
	}{
		{trace.Request{Arrival: math.NaN(), Deadline: 10}, trace.ErrNonFiniteArrival},
		{trace.Request{Arrival: math.Inf(1), Deadline: 10}, trace.ErrNonFiniteArrival},
		{trace.Request{Arrival: 1, Deadline: math.NaN()}, trace.ErrNonFiniteDeadline},
		{trace.Request{Arrival: 1, Deadline: math.Inf(1)}, trace.ErrNonFiniteDeadline},
	} {
		if _, err := e.Activate(0, c.req); !errors.Is(err, c.want) {
			t.Errorf("Activate(%+v) = %v, want %v", c.req, err, c.want)
		}
		reqs := []trace.Request{{Arrival: 0.5, Deadline: 10}, c.req}
		if _, err := e.ActivateEpoch(0, reqs, 2); !errors.Is(err, c.want) {
			t.Errorf("ActivateEpoch(.., %+v) = %v, want %v", c.req, err, c.want)
		}
	}
	if e.Requests() != 0 {
		t.Fatalf("rejected requests were recorded: %d", e.Requests())
	}
}
