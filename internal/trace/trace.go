// Package trace models request streams and implements the paper's trace
// generator (Sec 5.1): arrival times from a Gaussian interarrival process,
// uniformly random task types, and relative deadlines set to a random
// resource's WCET scaled by a tightness coefficient.
package trace

import (
	"errors"
	"fmt"
	"math"

	"predrm/internal/rng"
	"predrm/internal/task"
)

// Request is one incoming request req_j: the trigger for task τ_j.
type Request struct {
	// Arrival is the absolute arrival time s_j.
	Arrival float64 `json:"arrival"`
	// Type is the task type triggered by the request.
	Type int `json:"type"`
	// Deadline is the relative deadline d_j; the absolute deadline is
	// Arrival + Deadline.
	Deadline float64 `json:"deadline"`
}

// ErrNonFiniteArrival and ErrNonFiniteDeadline reject a request whose
// arrival or relative deadline is NaN or infinite: such a job would be
// admitted against a deadline no completion can ever miss.
var (
	ErrNonFiniteArrival  = errors.New("non-finite arrival")
	ErrNonFiniteDeadline = errors.New("non-finite deadline")
)

// Check validates one request: a finite arrival, a finite positive
// relative deadline and, when ts is non-nil, a type of ts.
func (r Request) Check(ts *task.Set) error {
	switch {
	case math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0):
		return fmt.Errorf("%w %v", ErrNonFiniteArrival, r.Arrival)
	case math.IsNaN(r.Deadline) || math.IsInf(r.Deadline, 0):
		return fmt.Errorf("%w %v", ErrNonFiniteDeadline, r.Deadline)
	case r.Deadline <= 0:
		return fmt.Errorf("non-positive deadline %v", r.Deadline)
	case ts != nil && (r.Type < 0 || r.Type >= ts.Len()):
		return fmt.Errorf("unknown type %d", r.Type)
	}
	return nil
}

// Trace is an ordered stream of requests.
type Trace struct {
	// Requests in non-decreasing arrival order.
	Requests []Request `json:"requests"`
}

// Len returns the number of requests.
func (t *Trace) Len() int { return len(t.Requests) }

// MeanInterarrival returns the average gap between consecutive arrivals.
// For traces with fewer than two requests it returns 0.
func (t *Trace) MeanInterarrival() float64 {
	if len(t.Requests) < 2 {
		return 0
	}
	span := t.Requests[len(t.Requests)-1].Arrival - t.Requests[0].Arrival
	return span / float64(len(t.Requests)-1)
}

// ErrNilTrace rejects a nil *Trace where a request stream is required.
var ErrNilTrace = errors.New("trace: nil trace")

// Validate checks ordering and referential integrity against a task set.
func (t *Trace) Validate(ts *task.Set) error {
	if t == nil {
		return ErrNilTrace
	}
	if len(t.Requests) == 0 {
		return errors.New("trace: empty trace")
	}
	prev := 0.0
	for i, r := range t.Requests {
		if err := r.Check(ts); err != nil {
			return fmt.Errorf("trace: request %d: %w", i, err)
		}
		if r.Arrival < prev {
			return fmt.Errorf("trace: request %d arrives at %v before previous %v", i, r.Arrival, prev)
		}
		prev = r.Arrival
	}
	return nil
}

// Tightness selects the deadline-coefficient range of a generated trace.
type Tightness int

const (
	// VeryTight is the paper's VT group: coefficients uniform in [1.5, 2].
	VeryTight Tightness = iota
	// LessTight is the paper's LT group: coefficients uniform in [2, 6].
	LessTight
)

// String returns the paper's group label ("VT" or "LT").
func (tt Tightness) String() string {
	switch tt {
	case VeryTight:
		return "VT"
	case LessTight:
		return "LT"
	default:
		return fmt.Sprintf("Tightness(%d)", int(tt))
	}
}

// CoeffRange returns the deadline coefficient bounds for the group.
func (tt Tightness) CoeffRange() (lo, hi float64) {
	if tt == VeryTight {
		return 1.5, 2
	}
	return 2, 6
}

// GenConfig parameterises the trace generator.
type GenConfig struct {
	// Length is the number of requests per trace (paper: 500).
	Length int
	// InterarrivalMean/Std parameterise the Gaussian increments between
	// consecutive arrivals (paper: 1.2, 0.4).
	InterarrivalMean, InterarrivalStd float64
	// Tightness selects the VT or LT deadline coefficient range.
	Tightness Tightness
}

// DefaultGenConfig returns the paper's literal Sec 5.1 parameters for the
// given tightness group.
func DefaultGenConfig(tt Tightness) GenConfig {
	return GenConfig{
		Length:           500,
		InterarrivalMean: 1.2,
		InterarrivalStd:  0.4,
		Tightness:        tt,
	}
}

// Validate checks the configuration.
func (c GenConfig) Validate() error {
	switch {
	case c.Length <= 0:
		return errors.New("trace: Length must be positive")
	case c.InterarrivalMean <= 0 || c.InterarrivalStd < 0:
		return errors.New("trace: invalid interarrival distribution")
	case c.Tightness != VeryTight && c.Tightness != LessTight:
		return errors.New("trace: unknown tightness group")
	}
	return nil
}

// Generate creates one trace over the given task set, deterministically in
// r. Following Sec 5.1:
//
//   - arrivals start at 0 and advance by Gaussian(InterarrivalMean,
//     InterarrivalStd²) increments (clamped to a small positive floor so
//     time never goes backwards);
//   - each request's type is uniform over the task set;
//   - the relative deadline is RWCET×C, where RWCET is the WCET on a
//     uniformly random executable resource of that type and C is uniform in
//     the group's coefficient range.
func Generate(ts *task.Set, cfg GenConfig, r *rng.Rand) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ts.Validate(); err != nil {
		return nil, err
	}
	coeffLo, coeffHi := cfg.Tightness.CoeffRange()
	tr := &Trace{Requests: make([]Request, 0, cfg.Length)}
	now := 0.0
	floor := cfg.InterarrivalMean / 100
	for i := 0; i < cfg.Length; i++ {
		if i > 0 {
			gap := r.Gaussian(cfg.InterarrivalMean, cfg.InterarrivalStd)
			if gap < floor {
				gap = floor
			}
			now += gap
		}
		typeID := r.Intn(ts.Len())
		ty := ts.Type(typeID)
		// RWCET: WCET on a uniformly random executable resource.
		exec := make([]int, 0, len(ty.WCET))
		for ri := range ty.WCET {
			if ty.ExecutableOn(ri) {
				exec = append(exec, ri)
			}
		}
		rwcet := ty.WCET[exec[r.Intn(len(exec))]]
		deadline := rwcet * r.Uniform(coeffLo, coeffHi)
		tr.Requests = append(tr.Requests, Request{
			Arrival:  now,
			Type:     typeID,
			Deadline: deadline,
		})
	}
	return tr, nil
}

// GenerateGroup creates count traces with independent streams split from r.
func GenerateGroup(ts *task.Set, cfg GenConfig, count int, r *rng.Rand) ([]*Trace, error) {
	if count <= 0 {
		return nil, errors.New("trace: count must be positive")
	}
	out := make([]*Trace, 0, count)
	for i := 0; i < count; i++ {
		tr, err := Generate(ts, cfg, r.Split())
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}
