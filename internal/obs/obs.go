// Package obs is the live introspection plane: an embeddable ops HTTP
// server that makes an in-flight resource-manager run observable, where
// PR 1-2's JSONL traces and metrics snapshots are post-hoc only.
//
// A driver (cmd/rmsim, cmd/experiments, or a future long-running server)
// builds a Plane around its telemetry handles and mounts it on a
// listener:
//
//	plane := obs.NewPlane(obs.Options{
//		Snapshot: reg.Snapshot, // live /metrics source
//		Tracer:   tracer,       // /trace/tail + drop counters
//	})
//	cfg.StateProbe = plane.Probe // virtual-clock RM state
//	srv, _ := obs.Serve(":0", plane)
//	defer srv.Close()
//
// Endpoints:
//
//	/metrics      Prometheus text exposition of the driver's registry
//	              snapshot merged with the plane's own
//	              telemetry.tracer.* instruments
//	/healthz      liveness ("ok")
//	/statusz      JSON RM state: in-flight jobs, per-resource occupancy
//	              and reservations, FeasCache hit rate, solver
//	              fallback/budget counters, per-reason admission
//	              histograms, tracer drop counts
//	/explainz     ?req=N: the request's decision-provenance narrative
//	              reconstructed from the tracer's ring (JSON; ?text=1
//	              renders the tracetool-explain text report). Needs the
//	              run recorded with provenance on to carry full detail.
//	/trace/tail   live structured-event stream (NDJSON; SSE with
//	              Accept: text/event-stream or ?sse=1) from a bounded
//	              non-blocking telemetry.Subscriber tap
//	/debug/pprof  stdlib profiling handlers
//
// The plane is clocked by the engine's time, not wall time:
// engine.Config.StateProbe hands it a StateSample at every admission
// decision and it publishes each one. The same plane therefore serves
// identically under the discrete-event simulator and under wall-clock
// serving; only the probe cadence changes.
package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"predrm/internal/engine"
	"predrm/internal/telemetry"
	"predrm/internal/traceview"
)

// Options configures a Plane.
type Options struct {
	// Snapshot supplies the driver's live metrics for /metrics and
	// /statusz (typically Registry.Snapshot of the run's registry). Nil
	// is allowed: only the plane's own instruments are exposed.
	Snapshot func() *telemetry.Snapshot
	// Tracer is tapped by /trace/tail and read for drop counters. Nil
	// disables tailing (the endpoint answers 503).
	Tracer *telemetry.Tracer
}

// Plane is the mounted introspection state. Create with NewPlane; all
// methods are safe for concurrent use.
type Plane struct {
	opts    Options
	reg     *telemetry.Registry // plane-owned instruments (tracer gauges)
	state   atomic.Pointer[engine.StateSample]
	started time.Time
	mux     *http.ServeMux
}

// NewPlane builds a plane around the driver's telemetry handles.
func NewPlane(opts Options) *Plane {
	p := &Plane{
		opts:    opts,
		reg:     telemetry.NewRegistry(),
		started: time.Now(),
	}
	p.mux = http.NewServeMux()
	p.mux.HandleFunc("/", p.handleIndex)
	p.mux.HandleFunc("/metrics", p.handleMetrics)
	p.mux.HandleFunc("/healthz", p.handleHealthz)
	p.mux.HandleFunc("/statusz", p.handleStatusz)
	p.mux.HandleFunc("/explainz", p.handleExplainz)
	p.mux.HandleFunc("/trace/tail", p.handleTail)
	p.mux.HandleFunc("/debug/pprof/", pprof.Index)
	p.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	p.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	p.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	p.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return p
}

// Probe is the engine.Config.StateProbe hook: it publishes every sample as
// the current RM state.
func (p *Plane) Probe(s engine.StateSample) {
	// The simulator may reuse the sample's backing storage; keep a copy.
	s.Resources = append([]engine.ResourceSample(nil), s.Resources...)
	p.state.Store(&s)
}

// Handler returns the plane's HTTP handler (also usable without Serve,
// e.g. mounted into a larger mux or an httptest server).
func (p *Plane) Handler() http.Handler { return p.mux }

// Close terminates open /trace/tail streams by closing the tracer's
// subscribers. Call when the observed run is finished.
func (p *Plane) Close() {
	if p.opts.Tracer != nil {
		p.opts.Tracer.CloseSubscribers()
	}
}

// ownSnapshot refreshes the plane-owned tracer gauges and snapshots the
// plane registry.
func (p *Plane) ownSnapshot() *telemetry.Snapshot {
	if t := p.opts.Tracer; t != nil {
		p.reg.Gauge("telemetry.tracer.dropped").Set(float64(t.Dropped()))
		p.reg.Gauge("telemetry.tracer.fanout_dropped").Set(float64(t.FanoutDropped()))
		p.reg.Gauge("telemetry.tracer.subscribers").Set(float64(t.Subscribers()))
	}
	return p.reg.Snapshot()
}

// driverSnapshot returns the driver's metrics, or nil.
func (p *Plane) driverSnapshot() *telemetry.Snapshot {
	if p.opts.Snapshot == nil {
		return nil
	}
	return p.opts.Snapshot()
}

func (p *Plane) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	fmt.Fprint(w, `predrm ops server
  /metrics      Prometheus text exposition
  /healthz      liveness
  /statusz      JSON RM state and solver counters
  /explainz     ?req=N decision-provenance narrative (&text=1 for text)
  /trace/tail   live event stream (NDJSON; SSE with Accept: text/event-stream)
  /debug/pprof  profiling
`)
}

func (p *Plane) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

func (p *Plane) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	// Driver snapshot first, plane-owned second: on name collisions
	// (telemetry.tracer.dropped is also set by Engine.Finalize at run end) the
	// plane's live reading wins in the merge.
	snap := telemetry.Merge(p.driverSnapshot(), p.ownSnapshot())
	w.Header().Set("Content-Type", ContentType)
	if err := WritePrometheus(w, snap); err != nil {
		// Headers are gone; all we can do is stop writing.
		return
	}
}

// Status is the /statusz document.
type Status struct {
	// UptimeSeconds is wall-clock time since the plane was built.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// RM is the last published state sample (null before the first probe).
	RM *engine.StateSample `json:"rm"`
	// FeasCache summarises the exact solver's cross-activation pruning
	// cache (zero when the heuristic engine is running).
	FeasCache CacheStatus `json:"feascache"`
	// HeuristicCache summarises the heuristic's probe cache
	// (core.Heuristic.Cache; zero unless a heuristic engine probes a list
	// holding a predicted or future release).
	HeuristicCache CacheStatus `json:"heuristic_cache"`
	// Warmstart reports cross-activation warm-start activity: repair
	// attempts and outcomes plus the warm bound's pruning work.
	Warmstart WarmstartStatus `json:"warmstart"`
	// Solver carries the resilience chain's fallback/budget counters.
	Solver SolverStatus `json:"solver"`
	// Reasons histograms the enumerated admission-decision reasons seen so
	// far (from the sim.admit_reason.* / sim.reject_reason.* counters;
	// empty maps until the driver records decisions).
	Reasons ReasonStatus `json:"reasons"`
	// Tracer reports event-loss accounting for the ring and the fan-out.
	Tracer TracerStatus `json:"tracer"`
}

// CacheStatus reports a solver's feasibility cache from its
// <solver>.cache.hits / .misses / .evictions counters; HitRate is derived
// from the first two (0 before any probe).
type CacheStatus struct {
	Hits      int64   `json:"hits"`
	Misses    int64   `json:"misses"`
	HitRate   float64 `json:"hit_rate"`
	Evictions int64   `json:"evictions"`
}

// WarmstartStatus aggregates the exact.warmstart.* counters: how often
// the previous activation's mapping was repaired into a warm seed, how
// often repair fell back, and how many subtrees the warm bound cut that
// the incumbent bound had missed.
type WarmstartStatus struct {
	Attempts     int64   `json:"attempts"`
	Seeded       int64   `json:"seeded"`
	SeedRate     float64 `json:"seed_rate"`
	RepairFailed int64   `json:"repair_failed"`
	BoundCuts    int64   `json:"bound_cuts"`
}

// SolverStatus aggregates solver activity and resilience counters.
type SolverStatus struct {
	ExactSolves     int64 `json:"exact_solves"`
	ExactTruncated  int64 `json:"exact_truncated"`
	Fallbacks       int64 `json:"fallbacks"`
	StageErrors     int64 `json:"stage_errors"`
	BudgetExhausted int64 `json:"budget_exhausted"`
	RejectOnly      int64 `json:"reject_only"`
}

// ReasonStatus breaks admission decisions down by their enumerated
// telemetry reason.
type ReasonStatus struct {
	Admit  map[string]int64 `json:"admit"`
	Reject map[string]int64 `json:"reject"`
}

// TracerStatus reports event-loss accounting.
type TracerStatus struct {
	RingDropped   int64 `json:"ring_dropped"`
	FanoutDropped int64 `json:"fanout_dropped"`
	Subscribers   int   `json:"subscribers"`
}

// handleStatusz assembles and serves the /statusz document.
func (p *Plane) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	st := Status{
		UptimeSeconds: time.Since(p.started).Seconds(),
		RM:            p.state.Load(),
	}
	if snap := p.driverSnapshot(); snap != nil {
		c := snap.Counters
		st.FeasCache = cacheStatus(c, "exact")
		st.HeuristicCache = cacheStatus(c, "core")
		st.Warmstart = WarmstartStatus{
			Attempts:     c["exact.warmstart.attempts"],
			Seeded:       c["exact.warmstart.seeded"],
			SeedRate:     finiteOr(float64(c["exact.warmstart.seeded"])/float64(c["exact.warmstart.attempts"]), 0),
			RepairFailed: c["exact.warmstart.repair_fail"],
			BoundCuts:    c["exact.warmstart.bound_cuts"],
		}
		st.Solver = SolverStatus{
			ExactSolves:     c["exact.solves"],
			ExactTruncated:  c["exact.truncated"],
			Fallbacks:       c["resilience.fallbacks"],
			StageErrors:     c["resilience.stage_errors"],
			BudgetExhausted: c["resilience.budget_exhausted"],
			RejectOnly:      c["resilience.reject_only"],
		}
		st.Reasons = ReasonStatus{
			Admit:  reasonCounters(c, "sim.admit_reason."),
			Reject: reasonCounters(c, "sim.reject_reason."),
		}
	}
	if t := p.opts.Tracer; t != nil {
		st.Tracer = TracerStatus{
			RingDropped:   t.Dropped(),
			FanoutDropped: t.FanoutDropped(),
			Subscribers:   t.Subscribers(),
		}
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// cacheStatus reads one solver's cache counters (prefix "exact" or "core").
func cacheStatus(c map[string]int64, prefix string) CacheStatus {
	hits, misses := c[prefix+".cache.hits"], c[prefix+".cache.misses"]
	return CacheStatus{
		Hits:      hits,
		Misses:    misses,
		HitRate:   finiteOr(float64(hits)/float64(hits+misses), 0),
		Evictions: c[prefix+".cache.evictions"],
	}
}

// reasonCounters extracts the counters under one reason-histogram prefix.
func reasonCounters(c map[string]int64, prefix string) map[string]int64 {
	out := make(map[string]int64)
	for name, v := range c {
		if strings.HasPrefix(name, prefix) {
			out[strings.TrimPrefix(name, prefix)] = v
		}
	}
	return out
}

// handleExplainz answers "why was request N admitted/rejected?" live: it
// rebuilds the timeline from the tracer's ring and renders the request's
// decision-provenance record. The ring bounds the lookback — requests
// whose decision events were overwritten answer 404.
func (p *Plane) handleExplainz(w http.ResponseWriter, r *http.Request) {
	t := p.opts.Tracer
	if t == nil {
		http.Error(w, "no tracer attached", http.StatusServiceUnavailable)
		return
	}
	q := r.URL.Query().Get("req")
	if q == "" {
		http.Error(w, "explainz requires ?req=<request id>", http.StatusBadRequest)
		return
	}
	req, err := strconv.Atoi(q)
	if err != nil {
		http.Error(w, fmt.Sprintf("req %q is not an integer", q), http.StatusBadRequest)
		return
	}
	tl := traceview.BuildTimeline(&traceview.Decoded{Events: t.Events()})
	x, err := traceview.Explain(tl, req)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	if r.URL.Query().Get("text") == "1" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_ = traceview.WriteExplanation(w, x)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(x)
}

// maxTailBuffer bounds /trace/tail's ?buf: the subscriber channel is
// allocated up front (about 96 B per slot), so an unbounded value would let
// one request reserve gigabytes.
const maxTailBuffer = 1 << 16

// handleTail streams live events. The subscriber is bounded and
// non-blocking on the emitting side: a slow client loses events (counted
// on /statusz and /metrics) instead of stalling the run.
func (p *Plane) handleTail(w http.ResponseWriter, r *http.Request) {
	t := p.opts.Tracer
	if t == nil {
		http.Error(w, "no tracer attached", http.StatusServiceUnavailable)
		return
	}
	buf := telemetry.DefaultSubscriberBuffer
	if s := r.URL.Query().Get("buf"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= 0 || n > maxTailBuffer {
			http.Error(w, fmt.Sprintf("buf must be an integer in [1, %d]", maxTailBuffer), http.StatusBadRequest)
			return
		}
		buf = n
	}
	sse := r.URL.Query().Get("sse") == "1" ||
		r.Header.Get("Accept") == "text/event-stream"
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	if flusher != nil {
		flusher.Flush() // commit headers before the first event arrives
	}

	sub := t.Subscribe(buf)
	defer sub.Close()
	enc := json.NewEncoder(w)
	for {
		select {
		case e, ok := <-sub.Events():
			if !ok {
				// Run finished (Plane.Close). SSE clients get a terminal
				// event so they can tell a clean end from a severed
				// connection; NDJSON stays pure event lines.
				if sse {
					_, _ = fmt.Fprint(w, "event: end\ndata: {}\n\n")
					if flusher != nil {
						flusher.Flush()
					}
				}
				return
			}
			if sse {
				if _, err := fmt.Fprint(w, "data: "); err != nil {
					return
				}
			}
			if err := enc.Encode(e); err != nil {
				return
			}
			if sse {
				if _, err := fmt.Fprint(w, "\n"); err != nil {
					return
				}
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

// Server is a Plane bound to a listener.
type Server struct {
	plane *Plane
	ln    net.Listener
	srv   *http.Server
}

// shutdownTimeout bounds Server.Close's graceful drain before it falls
// back to severing connections.
const shutdownTimeout = 2 * time.Second

// Serve binds the plane to addr (":0" picks a free port) and serves it in
// the background.
func Serve(addr string, p *Plane) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s := &Server{plane: p, ln: ln, srv: &http.Server{Handler: p.Handler()}}
	go func() { _ = s.srv.Serve(ln) }()
	return s, nil
}

// Addr returns the bound address (host:port).
func (s *Server) Addr() string { return s.ln.Addr().String() }

// URL returns the server's base URL.
func (s *Server) URL() string { return "http://" + s.Addr() }

// Close ends open tail streams and stops the server. Closing the plane
// unsubscribes every tailer, so the graceful Shutdown that follows lets
// each stream flush its terminal event and return before the listener
// goes away; only if that takes longer than shutdownTimeout are the
// remaining connections severed.
func (s *Server) Close() error {
	s.plane.Close()
	ctx, cancel := context.WithTimeout(context.Background(), shutdownTimeout)
	defer cancel()
	if err := s.srv.Shutdown(ctx); err != nil {
		return s.srv.Close()
	}
	return nil
}
