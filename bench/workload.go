package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/exact"
	"predrm/internal/obs"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/serve"
	"predrm/internal/sim"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// mode is how a workload hands requests to the system.
type mode int

const (
	// oneByOne calls engine.Activate once per request.
	oneByOne mode = iota
	// epochs groups arrivals into batch epochs by sim.RunSharded's rule
	// and calls ActivateEpoch on a sharded engine.
	epochs
	// overHTTP posts each request to a server with rmserve's wiring over
	// one keep-alive loopback connection.
	overHTTP
)

// workload is one set of generated inputs and the configuration that
// drives them. Every workload is a closed loop from one process: the next
// request is handed over only after the previous decision came back, as a
// caller blocked on a synchronous admission decision would.
type workload struct {
	name, why string
	// spec, types and the interarrival distribution feed the repository's
	// task-set and trace generators; workloads with equal generator
	// parameters see the same inputs for a seed.
	spec        string
	types       int
	iaMean      float64
	iaStd       float64
	mode        mode
	exact       bool // exact.Optimal instead of the heuristic
	predictor   bool // oracle predictor at accuracy 1
	shards      int
	batchWindow float64
	// perSecond is the decision rate the workload sustains on the host the
	// benchmark was sized on (2 cores, go1.24); it turns --seconds into a
	// trace count, so a seed always yields the same inputs.
	perSecond float64
	// traced is the number of traces the traced run covers.
	traced int
	// layers derives the per-layer metrics this workload is designated to
	// report from its traced run.
	layers func(t *tracedPass) map[string]float64
}

// reqsPerTrace is the request count of every generated trace.
const reqsPerTrace = 2000

// workloads is the benchmark's fixed workload set; the names are the
// keys BENCHMARK.json lists.
var workloads = []*workload{
	{
		name:      "paper-vt-heuristic",
		why:       "the paper's 5c1g setup with prediction: plain candidate scan, EDF probes, predictor and Sec 4.3 fallback; bypasses exact, shards and HTTP",
		spec:      "5c1g",
		types:     100,
		iaMean:    2.2,
		iaStd:     0.7,
		mode:      oneByOne,
		predictor: true,
		perSecond: 44000,
		traced:    10,
		layers:    heuristicLayers,
	},
	{
		name: "paper-vt-exact",
		why:  "the paper's setup at a lighter arrival rate through warm-started branch and bound: solver work and its heavy latency tail dominate",
		spec: "5c1g",
		// At the paper's interarrival of 2.2 one trace costs branch and
		// bound 0.7 to 2.1 s and its p99 ranges from 4 to 18 ms, so the
		// few traces a run can afford leave p99 and throughput 20-36%
		// apart across seeds. At 4.0 (the paper's std/mean ratio kept) a
		// trace costs about 0.24 s ± 15% and the tail stays 18x the median.
		types:     100,
		iaMean:    4.0,
		iaStd:     4.0 * 0.7 / 2.2,
		mode:      oneByOne,
		exact:     true,
		predictor: true,
		perSecond: 10000,
		traced:    4,
		layers:    exactLayers,
	},
	{
		name:        "scale-64c8g-x2",
		why:         "64c8g in 2 shards with batch epochs: routing, concurrent shard solves and the indexed scan; bypasses prediction and one-by-one admission",
		spec:        "64c8g",
		types:       144,
		iaMean:      0.5,
		iaStd:       0.5 / 3,
		mode:        epochs,
		shards:      2,
		batchWindow: 1,
		perSecond:   13000,
		traced:      5,
		layers:      shardLayers,
	},
	{
		name:      "serve-http",
		why:       "rmserve's wiring over loopback HTTP with reads and scrapes: JSON, the serve mutex, tracer, registry and obs probe; no solver change expected",
		spec:      "5c1g",
		types:     100,
		iaMean:    2.2,
		iaStd:     0.7,
		mode:      overHTTP,
		perSecond: 11000,
		traced:    5,
		layers:    serveLayers,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

// inputs are a workload's generated task set and traces, encoded as the
// JSON files tracegen would write; the timed set-up starts from these.
type inputs struct {
	set    []byte
	traces [][]byte
}

// taskSetSeed draws every workload's task-type table. The table is the
// deployed application library, fixed like the platform; the seed varies
// only the request traces. Per-seed tables would move the load level, and
// with it every timing, by more than the metrics' bounds.
const taskSetSeed = 1

// generate draws the task set and the first n traces of the workload's
// input stream for seed. The stream is prefix-stable: trace i depends
// only on the seed and i, never on n.
func (w *workload) generate(seed uint64, n, reqs int) (*inputs, error) {
	plat, err := platform.Parse(w.spec)
	if err != nil {
		return nil, err
	}
	tcfg := task.DefaultGenConfig()
	tcfg.NumTypes = w.types
	set, err := task.Generate(plat, tcfg, rng.New(taskSetSeed))
	if err != nil {
		return nil, err
	}
	traces, err := trace.GenerateGroup(set, trace.GenConfig{
		Length:           reqs,
		InterarrivalMean: w.iaMean,
		InterarrivalStd:  w.iaStd,
		Tightness:        trace.VeryTight,
	}, n, rng.New(seed))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := set.Write(&buf); err != nil {
		return nil, err
	}
	in := &inputs{set: buf.Bytes()}
	for _, tr := range traces {
		b, err := json.Marshal(tr)
		if err != nil {
			return nil, err
		}
		in.traces = append(in.traces, b)
	}
	return in, nil
}

// decoded are the inputs read back through the repository's readers.
type decoded struct {
	set    *task.Set
	traces []*trace.Trace
}

func decode(in *inputs) (*decoded, error) {
	set, err := task.Read(bytes.NewReader(in.set))
	if err != nil {
		return nil, err
	}
	d := &decoded{set: set, traces: make([]*trace.Trace, len(in.traces))}
	for i, b := range in.traces {
		if d.traces[i], err = trace.Read(bytes.NewReader(b)); err != nil {
			return nil, fmt.Errorf("trace %d: %w", i, err)
		}
		if err := d.traces[i].Validate(set); err != nil {
			return nil, fmt.Errorf("trace %d: %w", i, err)
		}
	}
	return d, nil
}

// instance is the system under test for one trace, built fresh.
type instance struct {
	eng engine.Driver // oneByOne and epochs
	// overHTTP only.
	srv    *serve.Server
	clock  *serve.ManualClock
	tracer *telemetry.Tracer
	url    string
	// hsrv is the benchmark's own listener around srv.Handler() in the
	// traced run; served closes when its Serve goroutine has returned.
	hsrv   *http.Server
	served chan struct{}
}

// newSolver returns a fresh instance of the workload's solver.
func (w *workload) newSolver() core.Solver {
	if w.exact {
		return &exact.Optimal{WarmStart: true}
	}
	return &core.Heuristic{Cache: sched.NewFeasCache(0)}
}

// config returns the engine configuration shared by the benchmark's
// decision loop and the simulator reference, without the solver.
func (w *workload) config(set *task.Set, tr *trace.Trace, seed uint64, ti int) (engine.Config, error) {
	cfg := engine.Config{Platform: set.Platform, TaskSet: set}
	if w.predictor {
		o, err := predict.NewOracle(tr, predict.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len(), Seed: seed*1_000_003 + uint64(ti)})
		if err != nil {
			return cfg, err
		}
		cfg.Predictor = o
	}
	return cfg, nil
}

// build assembles the system for trace ti. With rec set, the solver and
// predictor are wrapped in timing decorators, the server's handler is
// served from the benchmark's own listener, and reg (when non-nil)
// receives the solver's instruments; decisions are unchanged.
func (w *workload) build(set *task.Set, tr *trace.Trace, seed uint64, ti int, rec *recorder, reg *telemetry.Registry) (*instance, error) {
	cfg, err := w.config(set, tr, seed, ti)
	if err != nil {
		return nil, err
	}
	newSolver := w.newSolver
	if rec != nil {
		if cfg.Predictor != nil {
			cfg.Predictor = &timedPredictor{inner: cfg.Predictor, rec: rec}
		}
		name := "core.solve"
		if w.exact {
			name = "exact.solve"
		}
		lane := 0 // the sharded engine builds shard solvers in shard order
		newSolver = func() core.Solver {
			s := w.newSolver()
			if in, ok := s.(telemetry.Instrumentable); ok && reg != nil {
				in.AttachMetrics(reg)
			}
			ts := &timedSolver{inner: s, rec: rec, name: name, lane: lane}
			lane++
			return ts
		}
	}
	switch w.mode {
	case oneByOne:
		cfg.Solver = newSolver()
		eng, err := engine.New(cfg)
		return &instance{eng: eng}, err
	case epochs:
		eng, err := engine.NewSharded(cfg, engine.ShardConfig{Shards: w.shards, BatchWindow: w.batchWindow, NewSolver: newSolver})
		return &instance{eng: eng}, err
	}
	// rmserve's default wiring: metrics registry, ring tracer, obs plane.
	cfg.Solver = newSolver()
	cfg.Metrics = telemetry.NewRegistry()
	in := &instance{clock: &serve.ManualClock{}, tracer: telemetry.NewTracer(telemetry.TracerOptions{})}
	cfg.Tracer = in.tracer
	plane := obs.NewPlane(obs.Options{Snapshot: cfg.Metrics.Snapshot, Tracer: in.tracer})
	srv, err := serve.New(serve.Config{Engine: cfg, Clock: in.clock, Plane: plane})
	if err != nil {
		return nil, err
	}
	in.srv = srv
	if rec == nil {
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			_ = srv.Shutdown(context.Background())
			return nil, err
		}
		in.url = srv.URL()
		return in, nil
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	in.url = "http://" + ln.Addr().String()
	in.hsrv = &http.Server{Handler: timedHandler(srv.Handler(), rec)}
	in.served = make(chan struct{})
	go func() {
		defer close(in.served)
		_ = in.hsrv.Serve(ln) // http.ErrServerClosed once shutdown stops it
	}()
	return in, nil
}

// shutdown stops a server instance and returns its result.
func (in *instance) shutdown() (*engine.Result, error) {
	if in.srv == nil {
		return in.eng.Finalize(), nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var errs []error
	if in.hsrv != nil {
		errs = append(errs, in.hsrv.Shutdown(ctx))
		<-in.served
	}
	errs = append(errs, in.srv.Shutdown(ctx), in.srv.Err())
	return in.srv.Result(), errors.Join(errs...)
}

// traceRun is what one trace's timed decision loop produced.
type traceRun struct {
	loop time.Duration
	// mallocs and bytes are the heap allocations made during the loop,
	// by the system and, over HTTP, by the client side of each call.
	mallocs, bytes uint64
	outs           []engine.Outcome
	// events counts the server's tracer events (overHTTP).
	events int64
}

// drive runs the timed decision loop of one trace and appends each
// request's decision latency in µs to lat: the Activate call, the wall
// time of the request's ActivateEpoch, or the client's POST round trip.
// The loop covers the activations, the drain and, over HTTP, the
// decision reads and the scrapes; the caller sizes lat so the loop does
// not grow it.
func (w *workload) drive(in *instance, tr *trace.Trace, cl *http.Client, rec *recorder, lat *[]float64) (traceRun, error) {
	run := traceRun{outs: make([]engine.Outcome, 0, len(tr.Requests))}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	var err error
	start := time.Now()
	switch w.mode {
	case oneByOne:
		err = driveOneByOne(in.eng, tr, rec, lat, &run)
	case epochs:
		err = driveEpochs(in.eng, tr, w.batchWindow, rec, lat, &run)
	case overHTTP:
		err = driveHTTP(in, tr, cl, rec, lat, &run)
	}
	if err == nil && in.eng != nil {
		id := rec.begin("engine.drain", -1)
		err = in.eng.Drain()
		in.eng.Finalize()
		rec.end(id)
	}
	run.loop = time.Since(start)
	runtime.ReadMemStats(&m1)
	run.mallocs, run.bytes = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc
	return run, err
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }

func driveOneByOne(eng engine.Driver, tr *trace.Trace, rec *recorder, lat *[]float64, run *traceRun) error {
	for i, req := range tr.Requests {
		t0 := time.Now()
		var err error
		if rec != nil {
			// The traced run times the advance to the arrival on its own.
			// It is decision-neutral: Activate's own advance then has
			// nothing left to do.
			id := rec.begin("engine.advance", i)
			err = eng.AdvanceTo(req.Arrival)
			rec.end(id)
		}
		var out engine.Outcome
		if err == nil {
			id := rec.begin("engine.activate", i)
			out, err = eng.Activate(i, req)
			rec.end(id)
		}
		*lat = append(*lat, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		run.outs = append(run.outs, out)
	}
	return nil
}

func driveEpochs(eng engine.Driver, tr *trace.Trace, window float64, rec *recorder, lat *[]float64, run *traceRun) error {
	reqs := tr.Requests
	for i := 0; i < len(reqs); {
		// sim.RunSharded's epoch rule: the maximal run of arrivals within
		// the window of the first, closing at the window end or the last
		// arrival, whichever is later.
		first := reqs[i].Arrival
		j := i + 1
		for j < len(reqs) && reqs[j].Arrival <= first+window+sched.Eps {
			j++
		}
		closeAt := max(first+window, reqs[j-1].Arrival)
		t0 := time.Now()
		id := rec.begin("shard.epoch", i)
		outs, err := eng.ActivateEpoch(i, reqs[i:j], closeAt)
		rec.end(id)
		d := us(time.Since(t0))
		if err != nil {
			return fmt.Errorf("epoch at request %d: %w", i, err)
		}
		for k := i; k < j; k++ {
			*lat = append(*lat, d)
		}
		run.outs = append(run.outs, outs...)
		i = j
	}
	return nil
}

// readEvery is the POST count between two decision re-reads.
const readEvery = 10

func driveHTTP(in *instance, tr *trace.Trace, cl *http.Client, rec *recorder, lat *[]float64, run *traceRun) error {
	for i, req := range tr.Requests {
		// Step mode: the server stamps the arrival from the manual clock,
		// so decisions match a replay of the trace.
		in.clock.Set(req.Arrival)
		t0 := time.Now()
		id := rec.begin("serve.post", i)
		var dr serve.DecisionRecord
		err := postJSON(cl, in.url+"/v1/requests", serve.SubmitRequest{Type: req.Type, Deadline: req.Deadline}, &dr)
		rec.end(id)
		*lat = append(*lat, us(time.Since(t0)))
		if err != nil {
			return fmt.Errorf("request %d: %w", i, err)
		}
		if dr.ID != i || dr.Arrival != req.Arrival {
			return fmt.Errorf("request %d: server answered id %d arrival %v, want arrival %v", i, dr.ID, dr.Arrival, req.Arrival)
		}
		run.outs = append(run.outs, engine.Outcome{Req: dr.ID, Time: dr.Time, Accepted: dr.Accepted, Resource: dr.Resource, Reason: dr.Reason, Energy: dr.Energy})
		if (i+1)%readEvery == 0 {
			id := rec.begin("serve.read", i)
			var again serve.DecisionRecord
			err := getJSON(cl, in.url+"/v1/decisions/"+strconv.Itoa(i), &again)
			rec.end(id)
			if err != nil {
				return fmt.Errorf("read of request %d: %w", i, err)
			}
			if again != dr {
				return fmt.Errorf("read of request %d: got %+v, posted %+v", i, again, dr)
			}
		}
	}
	id := rec.begin("serve.scrape", -1)
	defer rec.end(id)
	for _, path := range []string{"/metrics", "/statusz"} {
		if err := getJSON(cl, in.url+path, nil); err != nil {
			return fmt.Errorf("scrape %s: %w", path, err)
		}
	}
	return nil
}

// postJSON posts body as JSON and decodes the 200 response into out.
func postJSON(cl *http.Client, url string, body, out any) error {
	b, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := cl.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return err
	}
	return readResponse(resp, out)
}

// getJSON fetches url and decodes the 200 response into out; a nil out
// reads and discards the body.
func getJSON(cl *http.Client, url string, out any) error {
	resp, err := cl.Get(url)
	if err != nil {
		return err
	}
	return readResponse(resp, out)
}

// readResponse consumes the whole body, so the keep-alive connection is
// reused, and rejects any status but 200.
func readResponse(resp *http.Response, out any) error {
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	if out == nil {
		if len(body) == 0 {
			return errors.New("empty body")
		}
		return nil
	}
	return json.Unmarshal(body, out)
}

// newClient returns an HTTP client that keeps one connection per server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

// resultJSON marshals a result without its telemetry snapshot, whose
// histograms hold measured wall times.
func resultJSON(res *engine.Result) ([]byte, error) {
	r := *res
	r.Telemetry = nil
	return json.Marshal(&r)
}

// checkResult verifies what every trace must satisfy: every request
// decided once and no admitted job past its deadline.
func checkResult(tr *trace.Trace, res *engine.Result) error {
	if res.Requests != len(tr.Requests) || res.Accepted+res.Rejected != res.Requests {
		return fmt.Errorf("%d requests: result counts %d requests, %d accepted, %d rejected",
			len(tr.Requests), res.Requests, res.Accepted, res.Rejected)
	}
	if res.DeadlineMisses > 0 {
		for _, j := range res.Jobs {
			if j.MissedDeadline {
				return fmt.Errorf("request %d missed its deadline (%d misses)", j.ID, res.DeadlineMisses)
			}
		}
		return fmt.Errorf("%d deadline misses", res.DeadlineMisses)
	}
	return nil
}

// reference runs trace ti through the simulator with the workload's
// configuration: the result the benchmark's own decision loop must match
// byte for byte.
func (w *workload) reference(set *task.Set, tr *trace.Trace, seed uint64, ti int) (*engine.Result, error) {
	cfg, err := w.config(set, tr, seed, ti)
	if err != nil {
		return nil, err
	}
	if w.mode == epochs {
		return sim.RunSharded(cfg, engine.ShardConfig{Shards: w.shards, BatchWindow: w.batchWindow, NewSolver: w.newSolver}, tr)
	}
	cfg.Solver = w.newSolver()
	return sim.Run(cfg, tr)
}

// replay runs a trace through a bare engine configured like the server's
// and returns its outcomes, which the server's HTTP decisions must equal.
func (w *workload) replay(set *task.Set, tr *trace.Trace) ([]engine.Outcome, error) {
	eng, err := engine.New(engine.Config{Platform: set.Platform, TaskSet: set, Solver: w.newSolver()})
	if err != nil {
		return nil, err
	}
	outs := make([]engine.Outcome, len(tr.Requests))
	for i, req := range tr.Requests {
		if outs[i], err = eng.Activate(i, req); err != nil {
			return nil, fmt.Errorf("request %d: %w", i, err)
		}
	}
	return outs, nil
}
