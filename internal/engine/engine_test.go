package engine

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"regexp"
	"testing"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
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

// TestValidateLookaheadNeedsMultiPredictor: a horizon beyond one step
// with a predictor that forecasts only one step is refused with the named
// error, instead of silently planning with the one-step forecast.
func TestValidateLookaheadNeedsMultiPredictor(t *testing.T) {
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	markov, err := predict.NewMarkov(set.Len(), predict.NewEWMA(0.3), 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Platform: platform.Default(), TaskSet: set, Solver: &core.Heuristic{}, Predictor: markov, Lookahead: 3}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("multi-step predictor refused: %v", err)
	}
	// Embedding the interface hides PredictK, as a wrapper that forwards
	// only Predictor's methods does.
	cfg.Predictor = struct{ predict.Predictor }{markov}
	if _, err := New(cfg); !errors.Is(err, ErrLookaheadUnsupported) {
		t.Fatalf("one-step predictor at lookahead 3: err = %v, want %v", err, ErrLookaheadUnsupported)
	}
	cfg.Lookahead = 1
	if err := cfg.Validate(); err != nil {
		t.Fatalf("one-step predictor at lookahead 1 refused: %v", err)
	}
}

// TestWakeSteppingWithReservations: with prediction the standing plan
// holds reservations, and an inaccurate oracle (TimeError 0.3) puts
// predicted arrivals where the reserved resource idles. A driver that
// follows every NextWake with AdvanceTo and one that lets Activate
// advance straight to each arrival walk the same plan, so they produce
// the identical Result and event stream (wall_ns zeroed). The stepped
// driver must stop inside a live reservation at least once, which pins
// the reservation branch of the walk the two share.
func TestWakeSteppingWithReservations(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(31))
	if err != nil {
		t.Fatal(err)
	}
	gc := trace.DefaultGenConfig(trace.VeryTight)
	gc.Length = 300
	gc.InterarrivalMean = 2.2
	gc.InterarrivalStd = 0.7
	tr, err := trace.Generate(set, gc, rng.New(32))
	if err != nil {
		t.Fatal(err)
	}
	build := func(sink *bytes.Buffer) *Engine {
		o, err := predict.NewOracle(tr, predict.OracleConfig{
			TypeAccuracy: 1, TimeError: 0.3, NumTypes: set.Len(), Seed: 33,
		})
		if err != nil {
			t.Fatal(err)
		}
		e, err := New(Config{
			Platform:  plat,
			TaskSet:   set,
			Solver:    &core.Heuristic{},
			Predictor: o,
			Audit:     true,
			Tracer:    telemetry.NewTracer(telemetry.TracerOptions{Sink: sink}),
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	// inReservation reports whether some resource is idling through a
	// reservation for the predicted task at the engine's current time.
	inReservation := func(e *Engine) bool {
		for _, segs := range e.plan {
			for _, s := range segs {
				if s.end <= e.now+sched.Eps || (s.job != nil && s.job.Done()) {
					continue
				}
				if s.job == nil && s.start <= e.now+sched.Eps {
					return true
				}
				break
			}
		}
		return false
	}

	var steppedOut, lateOut bytes.Buffer
	stepped, late := build(&steppedOut), build(&lateOut)
	wakes, reserved := 0, 0
	stepTo := func(limit float64) {
		for {
			w, ok := stepped.NextWake()
			if !ok || w > limit {
				return
			}
			if wakes++; wakes > 100000 {
				t.Fatalf("NextWake does not advance (stuck at %v)", w)
			}
			if err := stepped.AdvanceTo(w); err != nil {
				t.Fatal(err)
			}
			if inReservation(stepped) {
				reserved++
			}
		}
	}
	for i, req := range tr.Requests {
		stepTo(req.Arrival)
		if _, err := stepped.Activate(i, req); err != nil {
			t.Fatal(err)
		}
		if _, err := late.Activate(i, req); err != nil {
			t.Fatal(err)
		}
	}
	// A wall-clock driver runs the work out on wakes alone.
	stepTo(math.Inf(1))
	if n := stepped.InFlight(); n != 0 {
		t.Fatalf("wakes ran out with %d jobs in flight", n)
	}
	for _, e := range []*Engine{stepped, late} {
		if err := e.Drain(); err != nil {
			t.Fatal(err)
		}
	}
	a, b := stepped.Finalize(), late.Finalize()
	for _, e := range []*Engine{stepped, late} {
		if err := e.cfg.Tracer.Flush(); err != nil {
			t.Fatal(err)
		}
	}

	aJSON, _ := json.Marshal(a)
	bJSON, _ := json.Marshal(b)
	if !bytes.Equal(aJSON, bJSON) {
		t.Fatalf("results diverge:\nstepped: %s\nlate:    %s", aJSON, bJSON)
	}
	wallNS := regexp.MustCompile(`"wall_ns":\d+`)
	aEvents := wallNS.ReplaceAll(steppedOut.Bytes(), []byte(`"wall_ns":0`))
	bEvents := wallNS.ReplaceAll(lateOut.Bytes(), []byte(`"wall_ns":0`))
	if !bytes.Equal(aEvents, bEvents) {
		t.Fatalf("event streams diverge (%d vs %d bytes)", len(aEvents), len(bEvents))
	}
	if a.DeadlineMisses != 0 || a.Accepted == 0 {
		t.Fatalf("degenerate run: %+v", a)
	}
	if reserved == 0 {
		t.Fatalf("no wake of %d fell inside a reservation; the fixture no longer idles one", wakes)
	}
	t.Logf("%d wakes, %d inside a reservation, %d honoured", wakes, reserved,
		bytes.Count(aEvents, []byte(`"reservation_honoured"`)))
}
