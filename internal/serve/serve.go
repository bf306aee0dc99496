// Package serve runs the admission protocol as a long-lived wall-clock
// service: the paper's RM activation loop (internal/engine) behind a
// streaming HTTP/JSON API instead of a recorded trace.
//
//	srv, _ := serve.New(serve.Config{Engine: engCfg, Plane: plane})
//	_ = srv.Listen(":8080")
//	...
//	_ = srv.Shutdown(ctx) // stop intake, drain in-flight jobs
//	res := srv.Result()
//
// Endpoints:
//
//	POST /v1/requests        submit one request ({"type": T, "deadline": D});
//	                         the admission decision is returned synchronously
//	GET  /v1/decisions/{id}  re-read a past decision by request id
//	(everything else)        the mounted obs.Plane: /metrics, /statusz,
//	                         /explainz, /trace/tail, /debug/pprof
//
// Arrival intake, the admission protocol, EDF dispatch and completion
// bookkeeping all live in the shared engine; this package contributes
// only the wall-clock driver around it. A dispatcher goroutine executes
// the engine's planned EDF schedule against real time: after every
// activation (and whenever the engine's NextWake time arrives) it pushes
// the clock reading into engine.AdvanceTo, so preemptions, reservations
// held for predicted tasks, and job completions happen at their exact
// engine times — the timer only controls when they are observed, never
// what they are.
//
// Concurrency: HTTP requests are served concurrently, but the engine —
// and with it the solver — admits one activation at a time under the
// server's mutex, honouring the documented Solver/BudgetedSolver
// contracts (solver instances are not safe for concurrent Solve; see
// core.BudgetedSolver). Cross-activation warm-start state
// (sched.WarmState inside exact.Optimal, the heuristic's probe cache)
// therefore carries forward exactly as it does under the simulator.
// Overload degrades gracefully by configuring a core.BudgetedSolver as
// Config.Engine.Solver: per-activation budgets bound decision latency
// and fall through to cheaper solvers, with reject-only as the always-
// sound floor.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"predrm/internal/engine"
	"predrm/internal/obs"
)

// minTick floors the dispatcher's timer so a wake time sitting exactly on
// the current clock reading cannot spin the loop.
const minTick = 200 * time.Microsecond

// Config assembles a server.
type Config struct {
	// Engine configures the shared activation engine (platform, task set,
	// solver, optional tracer/metrics/provenance). A StateProbe set here
	// is chained after the plane's.
	Engine engine.Config
	// Shard selects the engine engine.NewSharded builds. Shards 0 or 1
	// is the bare Engine (Shard.NewSolver supplies Engine.Solver when
	// that is nil); more runs the service on the sharded scale-out
	// engine, which routes arrivals to platform shards by load and type
	// affinity (DESIGN.md §12) and refuses a tracer, provenance, a
	// predictor and an overhead hook. The server admits one request at a
	// time, so BatchWindow is ignored.
	Shard engine.ShardConfig
	// Clock drives the server; nil means a WallClock at speed 1 started
	// when New is called. A *ManualClock switches the server to step mode:
	// no dispatcher goroutine runs and Shutdown drains in engine time,
	// making request replays deterministic (the differential test's mode).
	Clock Clock
	// Plane, when non-nil, is mounted for every non-/v1 path and fed by
	// the engine's StateProbe, giving the wall-clock server the same live
	// introspection surface the simulator has.
	Plane *obs.Plane
}

// drainPoll caps how long Shutdown sleeps, in real time, between drain
// checks.
const drainPoll = 25 * time.Millisecond

// Server is a running wall-clock RM service. Create with New, expose with
// Listen (or mount Handler yourself), and always call Shutdown — it stops
// intake, drains in-flight work and finalises the Result.
type Server struct {
	cfg   Config
	clock Clock
	step  bool // ManualClock: no dispatcher, engine-time drain

	mu        sync.Mutex
	eng       engine.Driver
	decisions []DecisionRecord
	closed    bool
	failure   error // first engine invariant breakage; poisons intake
	result    *engine.Result
	shutErr   error

	kick     chan struct{}
	stopDisp chan struct{}
	dispDone chan struct{}

	mux  *http.ServeMux
	ln   net.Listener
	hsrv *http.Server
}

// New builds a server around cfg and, unless the clock is manual, starts
// its real-time dispatcher.
func New(cfg Config) (*Server, error) {
	if cfg.Clock == nil {
		cfg.Clock = NewWallClock(1)
	}
	if cfg.Plane != nil {
		// The plane publishes every decision; a caller-supplied probe still
		// sees each sample afterwards.
		probe := cfg.Engine.StateProbe
		plane := cfg.Plane
		cfg.Engine.StateProbe = func(s engine.StateSample) {
			plane.Probe(s)
			if probe != nil {
				probe(s)
			}
		}
	}
	eng, err := engine.NewSharded(cfg.Engine, cfg.Shard)
	if err != nil {
		return nil, err
	}
	_, manual := cfg.Clock.(*ManualClock)
	s := &Server{
		cfg:   cfg,
		clock: cfg.Clock,
		step:  manual,
		eng:   eng,
		kick:  make(chan struct{}, 1),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/requests", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/decisions/{id}", s.handleDecision)
	if cfg.Plane != nil {
		s.mux.Handle("/", cfg.Plane.Handler())
	}
	if !s.step {
		s.stopDisp = make(chan struct{})
		s.dispDone = make(chan struct{})
		go s.dispatch()
	}
	return s, nil
}

// Handler returns the server's HTTP handler (API plus mounted plane), for
// callers that manage their own listener.
func (s *Server) Handler() http.Handler { return s.mux }

// Listen binds addr (":0" picks a free port) and serves in the
// background.
func (s *Server) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("serve: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.hsrv = &http.Server{Handler: s.mux}
	go func() { _ = s.hsrv.Serve(ln) }()
	return nil
}

// Addr returns the bound address (host:port); empty before Listen.
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// URL returns the server's base URL; empty before Listen.
func (s *Server) URL() string {
	if s.ln == nil {
		return ""
	}
	return "http://" + s.Addr()
}

// kickDispatcher wakes the dispatcher after a plan change (non-blocking;
// a pending kick already covers it).
func (s *Server) kickDispatcher() {
	if s.step {
		return
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
}

// dispatch is the real-time executor: it repeatedly pushes the current
// clock reading into the engine and sleeps until the engine's next
// self-induced state change (job completion, plan-segment or reservation
// boundary) — the wall-clock analogue of the simulator's event loop,
// including the preemption points of the planned EDF schedule.
func (s *Server) dispatch() {
	defer close(s.dispDone)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		s.mu.Lock()
		if s.failure == nil {
			if err := s.eng.AdvanceTo(s.clock.Now()); err != nil {
				s.failure = err
			}
		}
		next, ok := s.eng.NextWake()
		s.mu.Unlock()
		d := time.Hour // idle: only a kick (new arrival) changes anything
		if ok {
			if d = s.clock.Until(next); d < minTick {
				d = minTick
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(d)
		select {
		case <-timer.C:
		case <-s.kick:
		case <-s.stopDisp:
			return
		}
	}
}

// Shutdown stops intake, severs the introspection streams cleanly, waits
// for in-flight HTTP activations, drains the engine's remaining jobs and
// finalises the Result. The context bounds the whole sequence: on expiry
// the HTTP front end is closed forcefully and the drain reports how many
// in-flight jobs it abandoned. Idempotent — later calls return the first
// outcome.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		err := s.shutErr
		s.mu.Unlock()
		return err
	}
	s.closed = true
	s.mu.Unlock()

	// Tail streams first (they are the only endless handlers), then the
	// listener: Shutdown returns once every in-flight handler — admission
	// activations included — has finished, so no decision is cut off
	// mid-flight.
	if s.cfg.Plane != nil {
		s.cfg.Plane.Close()
	}
	var httpErr error
	if s.hsrv != nil {
		httpErr = s.hsrv.Shutdown(ctx)
		if httpErr != nil {
			_ = s.hsrv.Close()
		}
	}
	if s.dispDone != nil {
		close(s.stopDisp)
		<-s.dispDone
	}
	drainErr := s.drain(ctx)

	s.mu.Lock()
	s.result = s.eng.Finalize()
	s.shutErr = errors.Join(drainErr, httpErr)
	err := s.shutErr
	s.mu.Unlock()
	return err
}

// drain waits for the engine's in-flight jobs to run out. In step mode
// (manual clock) it completes them in engine time, exactly like the
// simulator's end-of-trace drain; under a wall clock it follows real time
// until the work is gone or the context expires.
func (s *Server) drain(ctx context.Context) error {
	if s.step {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.eng.Drain()
	}
	for {
		s.mu.Lock()
		err := s.eng.AdvanceTo(s.clock.Now())
		inFlight := s.eng.InFlight()
		next, ok := s.eng.NextWake()
		s.mu.Unlock()
		if err != nil {
			return err
		}
		if inFlight == 0 {
			return nil
		}
		if !ok {
			return fmt.Errorf("serve: drain stalled with %d job(s) in flight and no pending event", inFlight)
		}
		d := s.clock.Until(next)
		if d < time.Millisecond {
			d = time.Millisecond
		}
		if d > drainPoll {
			d = drainPoll
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("serve: shutdown deadline with %d in-flight job(s) undrained: %w", inFlight, ctx.Err())
		case <-time.After(d):
		}
	}
}

// Result returns the finalised run result; nil until Shutdown completes.
func (s *Server) Result() *engine.Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.result
}

// Err returns the first engine failure (an RM invariant breakage that
// poisoned intake), or nil.
func (s *Server) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.failure
}
