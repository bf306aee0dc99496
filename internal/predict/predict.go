// Package predict supplies workload predictors for the resource manager.
//
// The paper deliberately separates prediction from management: its
// evaluation injects predictions of controlled accuracy (Sec 5.4) and
// controlled runtime overhead (Sec 5.5) rather than running a concrete
// predictor. Oracle reproduces that: it knows the trace and corrupts the
// predicted task type with a configurable error probability and the
// predicted arrival time with Gaussian noise calibrated to a target
// normalized RMS error.
//
// For end-to-end use the package also ships lightweight online predictors
// in the spirit of the authors' prior work ([12], [13] in the paper):
// a first-order Markov chain over task types and EWMA / two-phase
// interarrival estimators.
package predict

import (
	"errors"

	"predrm/internal/rng"
	"predrm/internal/trace"
)

// Prediction is the RM-facing forecast of the next request.
type Prediction struct {
	// Type is the predicted task type.
	Type int
	// Arrival is the predicted absolute arrival time s_p.
	Arrival float64
	// Deadline is the predicted relative deadline.
	Deadline float64
}

// Predictor forecasts the next request. Observe is called once per actual
// arrival, in trace order; Predict returns the forecast for the following
// request and false when no forecast is available (cold start or end of
// trace for oracles).
type Predictor interface {
	// Observe feeds the actual request with trace index idx.
	Observe(idx int, req trace.Request)
	// Predict forecasts the request after the last observed one.
	Predict() (Prediction, bool)
	// Overhead returns the prediction's runtime cost in simulated time,
	// charged as RM decision latency (Sec 5.5).
	Overhead() float64
	// Reset clears learned state so the predictor can serve a new trace.
	Reset()
}

// MultiPredictor additionally forecasts several requests ahead — the
// lookahead-horizon extension of the paper's single-step prediction.
type MultiPredictor interface {
	Predictor
	// PredictK forecasts up to k upcoming requests in arrival order; it
	// may return fewer (end of trace, cold start).
	PredictK(k int) []Prediction
}

// Oracle is the evaluation predictor: it reads the true next request from
// the trace and degrades it to the configured accuracy. The zero value is
// not usable; construct with NewOracle.
type Oracle struct {
	trace *trace.Trace
	// typeAccuracy is the probability the predicted type is correct.
	typeAccuracy float64
	// timeError is the target normalized RMS error of predicted arrival
	// times (normalizer: the trace's mean interarrival).
	timeError float64
	overhead  float64
	numTypes  int
	rand      *rng.Rand
	last      int
	sigma     float64
}

// OracleConfig parameterises NewOracle.
type OracleConfig struct {
	// TypeAccuracy in [0,1]: probability the task type is predicted
	// correctly (Fig 4a's accuracy axis). 1 = always right.
	TypeAccuracy float64
	// TimeError in [0,∞): target normalized RMSE of the arrival-time
	// prediction (Fig 4b plots accuracy = 1 − TimeError). 0 = exact.
	TimeError float64
	// Overhead is the prediction latency in simulated time units
	// (Fig 5's x-axis, already multiplied out).
	Overhead float64
	// NumTypes is the task-set size, needed to draw wrong types.
	NumTypes int
	// Seed drives the corruption noise.
	Seed uint64
}

// NewOracle builds an oracle over tr with the given degradation.
func NewOracle(tr *trace.Trace, cfg OracleConfig) (*Oracle, error) {
	if tr == nil || tr.Len() == 0 {
		return nil, errors.New("predict: oracle needs a non-empty trace")
	}
	if cfg.TypeAccuracy < 0 || cfg.TypeAccuracy > 1 {
		return nil, errors.New("predict: TypeAccuracy outside [0,1]")
	}
	if cfg.TimeError < 0 {
		return nil, errors.New("predict: negative TimeError")
	}
	if cfg.Overhead < 0 {
		return nil, errors.New("predict: negative Overhead")
	}
	if cfg.NumTypes <= 0 {
		return nil, errors.New("predict: NumTypes must be positive")
	}
	o := &Oracle{
		trace:        tr,
		typeAccuracy: cfg.TypeAccuracy,
		timeError:    cfg.TimeError,
		overhead:     cfg.Overhead,
		numTypes:     cfg.NumTypes,
		rand:         rng.New(cfg.Seed),
		last:         -1,
	}
	// Gaussian noise with σ = TimeError × mean interarrival yields an
	// expected normalized RMSE of exactly TimeError.
	o.sigma = cfg.TimeError * tr.MeanInterarrival()
	return o, nil
}

// Observe records that request idx has arrived.
func (o *Oracle) Observe(idx int, _ trace.Request) { o.last = idx }

// Predict returns the (degraded) next request.
func (o *Oracle) Predict() (Prediction, bool) { return o.step(1) }

// PredictK returns up to k upcoming requests, each independently degraded.
func (o *Oracle) PredictK(k int) []Prediction {
	var out []Prediction
	for step := 1; step <= k; step++ {
		p, ok := o.step(step)
		if !ok {
			break
		}
		out = append(out, p)
	}
	return out
}

// step returns the request k places after the last observed one,
// degraded by the type-accuracy draw and then the arrival noise, or false
// past the end of the trace.
func (o *Oracle) step(k int) (Prediction, bool) {
	next := o.last + k
	if next >= o.trace.Len() {
		return Prediction{}, false
	}
	req := o.trace.Requests[next]
	p := Prediction{Type: req.Type, Arrival: req.Arrival, Deadline: req.Deadline}
	if o.typeAccuracy < 1 && o.rand.Float64() >= o.typeAccuracy {
		// Draw a uniformly random *wrong* type.
		wrong := o.rand.Intn(o.numTypes - 1)
		if wrong >= req.Type {
			wrong++
		}
		p.Type = wrong
	}
	if o.sigma > 0 {
		p.Arrival += o.rand.Gaussian(0, o.sigma)
	}
	return p, true
}

var _ MultiPredictor = (*Oracle)(nil)

// Overhead returns the configured prediction latency.
func (o *Oracle) Overhead() float64 { return o.overhead }

// Reset rewinds the oracle to the beginning of its trace.
func (o *Oracle) Reset() {
	o.last = -1
	// Note: the corruption stream is deliberately not reseeded; distinct
	// passes see fresh noise. Use a fresh Oracle for exact repeatability.
}

var _ Predictor = (*Oracle)(nil)
