package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"net/http"
	"runtime"
	"time"

	"predrm/internal/engine"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// config is one invocation's settings.
type config struct {
	workloads []*workload
	seed      uint64
	seconds   int
	e2e       bool // measure the end-to-end metrics
	traced    bool // do the traced run
	quick     bool // 1 trace × quickReqs requests, one round, per workload
}

const (
	// rounds is how often a run passes over its workload's traces, each
	// time on freshly built systems. Every round sees the same inputs, so
	// rounds differ only by the host's noise. Each timing is computed on
	// every round alone and reported as the median over rounds: a burst of
	// host noise slows a round or two but rarely most of them.
	rounds = 5
	// setupReps is how often a run repeats the whole set-up.
	setupReps = 9
	// quickReqs is the trace length of a --quick run.
	quickReqs = 200
)

func (c config) rounds() int {
	if c.quick {
		return 1
	}
	return rounds
}

func (c config) setupReps() int {
	if c.quick {
		return 1
	}
	return setupReps
}

func (c config) reqs() int {
	if c.quick {
		return quickReqs
	}
	return reqsPerTrace
}

// traces is the number of traces workload w measures: about --seconds of
// decisions over all rounds at the workload's reference rate.
func (c config) traces(w *workload) int {
	if c.quick {
		return 1
	}
	return max(1, int(w.perSecond*float64(c.seconds)/float64(reqsPerTrace*rounds)+0.5))
}

func (c config) tracedTraces(w *workload) int {
	if c.quick {
		return 1
	}
	return w.traced
}

// value is one reported metric: the median of the figures in Rounds (one
// per round, or one per set-up repetition) and their interquartile range.
// A seed-fixed metric has no Rounds.
type value struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	IQR    float64   `json:"iqr"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// workloadRecord is one workload's end-to-end result.
type workloadRecord struct {
	Name      string           `json:"name"`
	Traces    int              `json:"traces"`
	Requests  int              `json:"requests_per_trace"`
	Rounds    int              `json:"rounds"`
	Decisions int              `json:"decisions"`
	Digest    string           `json:"digest"`
	Metrics   map[string]value `json:"metrics"`
	// Info holds figures printed for reading but not gated: the p99.9,
	// whose run-to-run spread is too wide to bound, and the error share.
	Info map[string]float64 `json:"info"`
}

// tracedRecord is the traced run's result.
type tracedRecord struct {
	Traces  map[string]int   `json:"traces"`
	Metrics map[string]value `json:"metrics"`
}

// runRecord is everything one invocation measured; --out writes it and
// --compare reads two of them.
type runRecord struct {
	Host      host             `json:"host"`
	Seed      uint64           `json:"seed"`
	Seconds   int              `json:"seconds"`
	Quick     bool             `json:"quick"`
	Workloads []workloadRecord `json:"workloads,omitempty"`
	Traced    *tracedRecord    `json:"traced,omitempty"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
}

// roundStats is one round of one workload.
type roundStats struct {
	lat []float64 // decision latencies in µs, request by request
	// loop, mallocs and bytes sum the decision loops' wall time and heap
	// allocations over the round's traces.
	loop           time.Duration
	mallocs, bytes uint64
}

// session is one workload's end-to-end run in progress.
type session struct {
	w      *workload
	d      *decoded
	setup  []float64
	rounds []roundStats
	// digest covers the first round's results; every later round must
	// reproduce it.
	digest   []byte
	requests int
	accepted int
	rejected int
	energy   float64
}

// run measures the configured workloads and, if asked, does the traced
// run. Any failed check aborts it with an error naming the workload,
// trace and request.
func run(c config) (*runRecord, map[string][]span, error) {
	rec := &runRecord{Seed: c.seed, Seconds: c.seconds, Quick: c.quick}
	cl := newClient()
	defer cl.CloseIdleConnections()
	if c.e2e {
		var sessions []*session
		for _, w := range c.workloads {
			s, err := c.prepare(w)
			if err != nil {
				return nil, nil, fmt.Errorf("%s: %w", w.name, err)
			}
			sessions = append(sessions, s)
		}
		// Rounds interleave across workloads, so a slow phase of the host
		// lands on one round of each instead of on one workload.
		for r := 0; r < c.rounds(); r++ {
			for _, s := range sessions {
				if err := s.round(c, cl); err != nil {
					return nil, nil, fmt.Errorf("%s: round %d: %w", s.w.name, r+1, err)
				}
			}
		}
		for _, s := range sessions {
			wr := s.summary(c)
			rec.Workloads = append(rec.Workloads, wr)
			rec.Attempted += wr.Decisions * wr.Rounds
		}
	}
	var spans map[string][]span
	if c.traced {
		tr := &tracedRecord{Traces: map[string]int{}, Metrics: map[string]value{}}
		spans = map[string][]span{}
		units := map[string]string{}
		for _, d := range perLayer {
			units[d.Name] = d.Unit
		}
		for _, w := range workloads {
			p, err := c.tracedRun(w, cl)
			if err != nil {
				return nil, nil, fmt.Errorf("traced run: %s: %w", w.name, err)
			}
			tr.Traces[w.name] = c.tracedTraces(w)
			spans[w.name] = p.spans
			rec.Attempted += 2 * p.decisions
			for name, v := range p.metrics() {
				tr.Metrics[name] = value{Value: v, Unit: units[name]}
			}
		}
		for _, d := range perLayer {
			if _, ok := tr.Metrics[d.Name]; !ok {
				return nil, nil, fmt.Errorf("traced run: no value for %s", d.Name)
			}
		}
		rec.Traced = tr
	}
	return rec, spans, nil
}

// prepare generates the workload's inputs and times the set-up.
func (c config) prepare(w *workload) (*session, error) {
	in, err := w.generate(c.seed, c.traces(w), c.reqs())
	if err != nil {
		return nil, err
	}
	s := &session{w: w}
	for i := 0; i < c.setupReps(); i++ {
		d, secs, err := c.setup(w, in)
		if err != nil {
			return nil, err
		}
		s.d = d
		s.setup = append(s.setup, secs)
	}
	return s, nil
}

// setup decodes the inputs and builds the system for every trace, timing
// both; servers are shut down again outside the timing.
func (c config) setup(w *workload, in *inputs) (*decoded, float64, error) {
	runtime.GC()
	start := time.Now()
	d, err := decode(in)
	if err != nil {
		return nil, 0, err
	}
	elapsed := time.Since(start)
	for ti, tr := range d.traces {
		t0 := time.Now()
		inst, err := w.build(d.set, tr, c.seed, ti, nil, nil)
		elapsed += time.Since(t0)
		if err != nil {
			return nil, 0, fmt.Errorf("trace %d: %w", ti, err)
		}
		if inst.srv != nil {
			if _, err := inst.shutdown(); err != nil {
				return nil, 0, fmt.Errorf("trace %d: %w", ti, err)
			}
		}
	}
	return d, elapsed.Seconds(), nil
}

// round runs every trace of the session once more. The first round also
// runs the checks against the simulator and the engine replay; every
// later round must decide exactly as the first did.
func (s *session) round(c config, cl *http.Client) error {
	first := len(s.rounds) == 0
	rs := roundStats{lat: make([]float64, 0, len(s.d.traces)*c.reqs())}
	digest := sha256.New()
	runtime.GC()
	for ti := range s.d.traces {
		run, res, err := c.runTrace(s.w, s.d, ti, nil, nil, cl, &rs.lat, first)
		if err != nil {
			return fmt.Errorf("trace %d: %w", ti, err)
		}
		rs.loop += run.loop
		rs.mallocs += run.mallocs
		rs.bytes += run.bytes
		if err := writeDigest(digest, res); err != nil {
			return err
		}
		if first {
			s.requests += res.Requests
			s.accepted += res.Accepted
			s.rejected += res.Rejected
			s.energy += res.TotalEnergy
		}
	}
	sum := digest.Sum(nil)
	if first {
		s.digest = sum
	} else if !bytes.Equal(sum, s.digest) {
		return fmt.Errorf("decided differently from round 1")
	}
	s.rounds = append(s.rounds, rs)
	return nil
}

func writeDigest(h hash.Hash, res *engine.Result) error {
	b, err := resultJSON(res)
	if err != nil {
		return err
	}
	h.Write(b)
	return nil
}

// runTrace builds the system for trace ti, runs its timed loop, tears it
// down and checks its result's invariants. With full set it also checks
// trace 0 against the simulator reference and, over HTTP, the decisions
// against an engine replay; runs without it must match one with it.
func (c config) runTrace(w *workload, d *decoded, ti int, rec *recorder, reg *telemetry.Registry, cl *http.Client, lat *[]float64, full bool) (traceRun, *engine.Result, error) {
	tr := d.traces[ti]
	inst, err := w.build(d.set, tr, c.seed, ti, rec, reg)
	if err != nil {
		return traceRun{}, nil, err
	}
	run, err := w.drive(inst, tr, cl, rec, lat)
	cl.CloseIdleConnections()
	res, serr := inst.shutdown()
	if err != nil {
		return run, nil, err
	}
	if serr != nil {
		return run, nil, serr
	}
	if err := checkResult(tr, res); err != nil {
		return run, nil, err
	}
	if full && w.mode == overHTTP {
		if err := checkReplay(w, d, tr, run.outs); err != nil {
			return run, nil, err
		}
	}
	if full && ti == 0 {
		if err := checkReference(w, d, tr, c.seed, res); err != nil {
			return run, nil, err
		}
	}
	if inst.tracer != nil {
		run.events = int64(inst.tracer.Len()) + inst.tracer.Dropped()
	}
	return run, res, nil
}

// checkReplay compares the server's HTTP decisions with an engine replay.
func checkReplay(w *workload, d *decoded, tr *trace.Trace, got []engine.Outcome) error {
	want, err := w.replay(d.set, tr)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	for i := range want {
		g, e := got[i], want[i]
		if g.Accepted != e.Accepted || g.Resource != e.Resource || g.Energy != e.Energy || g.Time != e.Time {
			return fmt.Errorf("request %d: server decided %+v, engine replay %+v", i, g, e)
		}
	}
	return nil
}

// checkReference compares the decision loop's result with the simulator's.
func checkReference(w *workload, d *decoded, tr *trace.Trace, seed uint64, res *engine.Result) error {
	ref, err := w.reference(d.set, tr, seed, 0)
	if err != nil {
		return fmt.Errorf("simulator reference: %w", err)
	}
	got, err := resultJSON(res)
	if err != nil {
		return err
	}
	want, err := resultJSON(ref)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("result differs from the simulator's at request %d", firstDiff(res, ref))
	}
	return nil
}

// firstDiff returns the first request whose job record differs, or the
// request count when only the totals do.
func firstDiff(a, b *engine.Result) int {
	for i := range min(len(a.Jobs), len(b.Jobs)) {
		if a.Jobs[i] != b.Jobs[i] {
			return i
		}
	}
	return min(len(a.Jobs), len(b.Jobs))
}

// summary reduces a session to its end-to-end metrics. Each timing is
// computed on every round alone, so a round's p99 is the tail its
// requests saw, and reported as the median over rounds.
func (s *session) summary(c config) workloadRecord {
	n := len(s.rounds[0].lat)
	perRound := make(map[string][]float64)
	for _, rs := range s.rounds {
		for name, v := range map[string]float64{
			"decision_p50_us":          percentile(rs.lat, 0.50),
			"decision_p99_us":          percentile(rs.lat, 0.99),
			"decision_p999_us":         percentile(rs.lat, 0.999),
			"decisions_per_s":          float64(n) / rs.loop.Seconds(),
			"alloc_bytes_per_decision": float64(rs.bytes) / float64(n),
			"allocs_per_decision":      float64(rs.mallocs) / float64(n),
		} {
			perRound[name] = append(perRound[name], v)
		}
	}
	overRounds := func(xs []float64, unit string) value {
		return value{Value: median(xs), Unit: unit, IQR: iqr(xs), Rounds: xs}
	}
	return workloadRecord{
		Name:      s.w.name,
		Traces:    len(s.d.traces),
		Requests:  c.reqs(),
		Rounds:    len(s.rounds),
		Decisions: n,
		Digest:    hex.EncodeToString(s.digest),
		Metrics: map[string]value{
			"decision_p50_us":          overRounds(perRound["decision_p50_us"], "us"),
			"decision_p99_us":          overRounds(perRound["decision_p99_us"], "us"),
			"decisions_per_s":          overRounds(perRound["decisions_per_s"], "1/s"),
			"alloc_bytes_per_decision": overRounds(perRound["alloc_bytes_per_decision"], "B"),
			"allocs_per_decision":      overRounds(perRound["allocs_per_decision"], "count"),
			"rejection_pct":            {Value: 100 * float64(s.rejected) / float64(s.requests), Unit: "%"},
			"energy_per_accepted_j":    {Value: s.energy / float64(s.accepted), Unit: "J"},
			"setup_s":                  overRounds(s.setup, "s"),
		},
		// Any error or miss aborts the run, so a finished run has none.
		Info: map[string]float64{"decision_p999_us": median(perRound["decision_p999_us"]), "error_pct": 0},
	}
}

// tracedPass is one workload's traced run: an untraced pass and a traced
// pass over the same first traces.
type tracedPass struct {
	w         *workload
	spans     []span
	loop      time.Duration // Σ loop wall time of the traced pass
	untraced  []float64     // decision latencies, µs
	traced    []float64
	decisions int
	reg       *telemetry.Registry
	events    int64 // tracer events over HTTP
}

// tracedRun runs the workload's first traces untraced, then traced with
// spans around every call into a layer; both passes must decide alike.
func (c config) tracedRun(w *workload, cl *http.Client) (*tracedPass, error) {
	in, err := w.generate(c.seed, c.tracedTraces(w), c.reqs())
	if err != nil {
		return nil, err
	}
	d, err := decode(in)
	if err != nil {
		return nil, err
	}
	p := &tracedPass{w: w, reg: telemetry.NewRegistry()}
	rec := newRecorder()
	digests := [2]hash.Hash{sha256.New(), sha256.New()}
	for pass, r := range []*recorder{nil, rec} {
		lat := &p.untraced
		var reg *telemetry.Registry
		if r != nil {
			lat, reg = &p.traced, p.reg
		}
		*lat = make([]float64, 0, len(d.traces)*c.reqs())
		runtime.GC()
		for ti := range d.traces {
			run, res, err := c.runTrace(w, d, ti, r, reg, cl, lat, r == nil)
			if err != nil {
				return nil, fmt.Errorf("trace %d: %w", ti, err)
			}
			if err := writeDigest(digests[pass], res); err != nil {
				return nil, err
			}
			if r != nil {
				p.loop += run.loop
				p.events += run.events
			}
		}
	}
	if !bytes.Equal(digests[0].Sum(nil), digests[1].Sum(nil)) {
		return nil, fmt.Errorf("traced decisions differ from untraced ones")
	}
	p.spans = rec.snapshot()
	p.decisions = len(p.traced)
	return p, nil
}

// metrics returns the workload's designated per-layer metrics plus its
// trace self-checks: the share of the traced loop that root spans cover,
// and how much slower the median decision was with tracing on.
func (p *tracedPass) metrics() map[string]float64 {
	m := p.w.layers(p)
	var roots time.Duration
	for _, s := range p.spans {
		if s.Parent < 0 {
			roots += time.Duration(s.dur())
		}
	}
	m["trace.coverage_pct."+p.w.name] = 100 * roots.Seconds() / p.loop.Seconds()
	m["trace.overhead_pct."+p.w.name] = 100 * (median(p.traced)/median(p.untraced) - 1)
	return m
}
