package engine

import "predrm/internal/trace"

// Driver is the activation surface a clock owner programs against: the
// discrete-event simulator and the wall-clock server both drive exactly
// this interface, so either can run a single Engine or the sharded
// scale-out engine NewSharded builds without knowing which (DESIGN.md
// §11, §12).
//
// Implementations are not safe for concurrent use; callers serialise all
// methods, exactly as with a bare *Engine.
type Driver interface {
	// Activate runs one request's admission (Engine.Activate).
	Activate(idx int, req trace.Request) (Outcome, error)
	// ActivateEpoch admits a batch of requests collected over one epoch
	// window, deciding them together at the epoch close
	// (Engine.ActivateEpoch).
	ActivateEpoch(startIdx int, reqs []trace.Request, close float64) ([]Outcome, error)
	// AdvanceTo executes standing work up to time t (monotone; early or
	// late calls are harmless).
	AdvanceTo(t float64) error
	// NextWake reports the next self-inflicted state change, if any.
	NextWake() (float64, bool)
	// Drain runs remaining work out in engine time.
	Drain() error
	// Finalize assembles the run's Result (idempotent).
	Finalize() *Result
	// Now is the engine clock (sharded: the most advanced shard).
	Now() float64
	// InFlight counts active jobs across the whole platform.
	InFlight() int
	// Requests counts activations so far.
	Requests() int
}
