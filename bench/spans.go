package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"

	"predrm/internal/core"
	"predrm/internal/exact"
	"predrm/internal/predict"
	"predrm/internal/sched"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// span is one timed call into a layer, recorded from outside it.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent indexes the span that caused this one; -1 for a root.
	Parent int `json:"parent"`
	// Req is the request id the span belongs to (inherited by children),
	// or -1 for per-trace work such as a drain.
	Req int `json:"req"`
	// Lane is the shard whose solver ran the span (sharded workload).
	Lane int `json:"lane,omitempty"`
	// Jobs is the problem size of a solve; Nodes its branch-and-bound
	// node count (exact solver); OK whether it found a feasible mapping,
	// or whether a forecast was made.
	Jobs  int  `json:"jobs,omitempty"`
	Nodes int  `json:"nodes,omitempty"`
	OK    bool `json:"ok,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory for one traced run. The benchmark drives
// a closed loop, so the spans opened by the decision loop (and by the
// server's handler while the loop waits on it) form one causal chain: open
// holds that chain, and leaf spans from solver and predictor wrappers —
// even concurrent per-shard solves — attach to its innermost span.
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// parentLocked returns the innermost open span and its request id.
func (r *recorder) parentLocked() (int, int) {
	if len(r.open) == 0 {
		return -1, -1
	}
	p := r.open[len(r.open)-1]
	return p, r.spans[p].Req
}

// begin opens a span on the causal chain; req < 0 inherits the parent's.
// A nil recorder records nothing, so untraced loops pay one nil check.
func (r *recorder) begin(name string, req int) int {
	if r == nil {
		return -1
	}
	start := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	parent, preq := r.parentLocked()
	if req < 0 {
		req = preq
	}
	r.spans = append(r.spans, span{Name: name, Start: start, Parent: parent, Req: req})
	id := len(r.spans) - 1
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	if r == nil {
		return
	}
	end := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	r.spans[id].End = end
	r.open = r.open[:len(r.open)-1]
}

// leaf records a finished span under the innermost open span.
func (r *recorder) leaf(s span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s.Parent, s.Req = r.parentLocked()
	r.spans = append(r.spans, s)
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap one another
// (concurrent shard solves); overlapping parts count once.
func selfTimes(spans []span) []int64 {
	kids := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
		covered, reach := int64(0), s.Start
		for _, iv := range ivs {
			lo, hi := max(iv[0], reach), min(iv[1], s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = s.dur() - covered
	}
	return self
}

// writeSpans writes the spans of every workload's traced run as one JSON
// document: {"<workload>": [span, ...], ...}.
func writeSpans(path string, byWorkload map[string][]span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(byWorkload); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}

// timedSolver records a span around every Solve of the solver it wraps.
// It forwards telemetry.Instrumentable so an engine or server that
// attaches its registry still reaches the real solver.
type timedSolver struct {
	inner core.Solver
	rec   *recorder
	name  string
	lane  int
}

func (s *timedSolver) Solve(p *sched.Problem) core.Decision {
	start := s.rec.now()
	d := s.inner.Solve(p)
	sp := span{Name: s.name, Start: start, End: s.rec.now(), Lane: s.lane, Jobs: len(p.Jobs), OK: d.Feasible}
	if o, ok := s.inner.(*exact.Optimal); ok {
		sp.Nodes = o.LastStats.Nodes
	}
	s.rec.leaf(sp)
	return d
}

func (s *timedSolver) AttachMetrics(reg *telemetry.Registry) {
	if in, ok := s.inner.(telemetry.Instrumentable); ok {
		in.AttachMetrics(reg)
	}
}

// timedPredictor records a span around every Observe and Predict.
type timedPredictor struct {
	inner predict.Predictor
	rec   *recorder
}

func (p *timedPredictor) Observe(idx int, req trace.Request) {
	start := p.rec.now()
	p.inner.Observe(idx, req)
	p.rec.leaf(span{Name: "predict.observe", Start: start, End: p.rec.now()})
}

func (p *timedPredictor) Predict() (predict.Prediction, bool) {
	start := p.rec.now()
	pred, ok := p.inner.Predict()
	p.rec.leaf(span{Name: "predict.forecast", Start: start, End: p.rec.now(), OK: ok})
	return pred, ok
}

func (p *timedPredictor) Overhead() float64 { return p.inner.Overhead() }
func (p *timedPredictor) Reset()            { p.inner.Reset() }

// timedHandler opens a serve.handler span around every request the
// server's handler serves.
func timedHandler(h http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := rec.begin("serve.handler", -1)
		defer rec.end(id)
		h.ServeHTTP(w, r)
	})
}
