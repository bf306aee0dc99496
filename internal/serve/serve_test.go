package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/obs"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sim"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

func testWorkload(t *testing.T, tight trace.Tightness, length int, meanIA float64, seed uint64) (*task.Set, *trace.Trace) {
	t.Helper()
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	cfg := trace.DefaultGenConfig(tight)
	cfg.Length = length
	cfg.InterarrivalMean = meanIA
	cfg.InterarrivalStd = meanIA / 3
	tr, err := trace.Generate(set, cfg, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return set, tr
}

// baseEngine is the zero-overhead configuration both drivers share in the
// differential test: with no decision overhead the engine never runs
// ahead of the next arrival, so the server's intake clamp
// (max(clock.Now(), eng.Now())) is a no-op and the (arrival, request)
// sequence — the only input admission depends on — is identical under
// both drivers.
func baseEngine(set *task.Set) engine.Config {
	return engine.Config{
		Platform: platform.Default(),
		TaskSet:  set,
		Solver:   &core.Heuristic{},
	}
}

func postRequest(t *testing.T, url string, typ int, deadline float64) (DecisionRecord, int) {
	t.Helper()
	body, _ := json.Marshal(SubmitRequest{Type: typ, Deadline: deadline})
	resp, err := http.Post(url+"/v1/requests", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("post: %v", err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	var rec DecisionRecord
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(b, &rec); err != nil {
			t.Fatalf("decode decision: %v\n%s", err, b)
		}
	}
	return rec, resp.StatusCode
}

// TestServeDifferentialMatchesSim replays one generated trace through
// both drivers of the shared engine — sim.Run in virtual time and the
// HTTP server in step mode (ManualClock pinned to each arrival) — and
// requires byte-identical outcomes: the full Result JSON and the JSONL
// telemetry streams must match exactly, and every synchronous HTTP
// decision must agree with the simulator's record for the same request.
func TestServeDifferentialMatchesSim(t *testing.T) {
	set, tr := testWorkload(t, trace.VeryTight, 120, 5, 7)

	var simTrace bytes.Buffer
	simCfg := baseEngine(set)
	simCfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Sink: &simTrace})
	simRes, err := sim.Run(simCfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := simCfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	var srvTrace bytes.Buffer
	srvCfg := baseEngine(set)
	srvCfg.Tracer = telemetry.NewTracer(telemetry.TracerOptions{Sink: &srvTrace})
	clock := &ManualClock{}
	srv, err := New(Config{Engine: srvCfg, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for i, req := range tr.Requests {
		clock.Set(req.Arrival)
		rec, code := postRequest(t, srv.URL(), req.Type, req.Deadline)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if rec.ID != i || rec.Arrival != req.Arrival {
			t.Fatalf("request %d: got id %d arrival %v, want arrival %v", i, rec.ID, rec.Arrival, req.Arrival)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := srvCfg.Tracer.Flush(); err != nil {
		t.Fatal(err)
	}
	srvRes := srv.Result()
	if srvRes == nil {
		t.Fatal("no result after shutdown")
	}

	simJSON, _ := json.Marshal(simRes)
	srvJSON, _ := json.Marshal(srvRes)
	if !bytes.Equal(simJSON, srvJSON) {
		t.Fatalf("results diverge:\nsim:   %s\nserve: %s", simJSON, srvJSON)
	}
	// wall_ns is the one real-time field in the stream (measured solver
	// latency); everything else — sequence, engine timestamps, decisions,
	// lifecycle order — must agree to the byte.
	wallNS := regexp.MustCompile(`"wall_ns":\d+`)
	simEvents := wallNS.ReplaceAll(simTrace.Bytes(), []byte(`"wall_ns":0`))
	srvEvents := wallNS.ReplaceAll(srvTrace.Bytes(), []byte(`"wall_ns":0`))
	if !bytes.Equal(simEvents, srvEvents) {
		t.Fatalf("telemetry streams diverge (%d vs %d bytes)", len(simEvents), len(srvEvents))
	}
	for i, rec := range srv.Decisions() {
		j := simRes.Jobs[i]
		if rec.Accepted != j.Accepted || rec.Arrival != j.Arrival {
			t.Fatalf("decision %d diverges from sim record: %+v vs %+v", i, rec, j)
		}
	}
	if simRes.Requests != len(tr.Requests) || simRes.Accepted == 0 {
		t.Fatalf("degenerate differential run: %+v", simRes)
	}
}

// TestServeShardedMatchesSim: the server at two shards (step mode, the
// clock pinned to each arrival) decides every request as sim.RunSharded
// does at two shards with window 0, and finalises the same Result JSON.
func TestServeShardedMatchesSim(t *testing.T) {
	plat, err := platform.Parse("8c2g")
	if err != nil {
		t.Fatal(err)
	}
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	gc := trace.DefaultGenConfig(trace.VeryTight)
	gc.Length = 120
	gc.InterarrivalMean = 1.5
	gc.InterarrivalStd = 0.5
	tr, err := trace.Generate(set, gc, rng.New(18))
	if err != nil {
		t.Fatal(err)
	}
	newCfg := func() (engine.Config, engine.ShardConfig) {
		return engine.Config{Platform: plat, TaskSet: set},
			engine.ShardConfig{Shards: 2, NewSolver: func() core.Solver { return &core.Heuristic{} }}
	}
	simCfg, sc := newCfg()
	simRes, err := sim.RunSharded(simCfg, sc, tr)
	if err != nil {
		t.Fatal(err)
	}

	srvCfg, sc := newCfg()
	clock := &ManualClock{}
	srv, err := New(Config{Engine: srvCfg, Shard: sc, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	for i, req := range tr.Requests {
		clock.Set(req.Arrival)
		rec, code := postRequest(t, srv.URL(), req.Type, req.Deadline)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if rec.ID != i || rec.Arrival != req.Arrival {
			t.Fatalf("request %d: got id %d arrival %v, want arrival %v", i, rec.ID, rec.Arrival, req.Arrival)
		}
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for i, rec := range srv.Decisions() {
		j := simRes.Jobs[i]
		if rec.Accepted != j.Accepted || rec.Arrival != j.Arrival {
			t.Fatalf("decision %d diverges from sim record: %+v vs %+v", i, rec, j)
		}
	}
	simJSON, _ := json.Marshal(simRes)
	srvJSON, _ := json.Marshal(srv.Result())
	if !bytes.Equal(simJSON, srvJSON) {
		t.Fatalf("results diverge:\nsim:   %s\nserve: %s", simJSON, srvJSON)
	}
	if simRes.Requests != len(tr.Requests) || simRes.Accepted == 0 || simRes.Rejected == 0 {
		t.Fatalf("degenerate differential run: %d requests, %d accepted, %d rejected", simRes.Requests, simRes.Accepted, simRes.Rejected)
	}
}

// TestServeWallClockDrain runs the server against a fast wall clock,
// submits a paced request stream over HTTP, and checks graceful
// shutdown: every in-flight activation drains, no accepted job misses
// its deadline, and the finalised result accounts for every submission.
func TestServeWallClockDrain(t *testing.T) {
	set, tr := testWorkload(t, trace.LessTight, 40, 8, 11)
	const speed = 400 // engine time units per real second

	srv, err := New(Config{Engine: baseEngine(set), Clock: NewWallClock(speed)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for i, req := range tr.Requests {
		rec, code := postRequest(t, srv.URL(), req.Type, req.Deadline)
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, code)
		}
		if rec.Accepted {
			accepted++
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown did not drain cleanly: %v", err)
	}
	if err := srv.Err(); err != nil {
		t.Fatalf("engine failure: %v", err)
	}
	res := srv.Result()
	if res == nil {
		t.Fatal("no result after shutdown")
	}
	if res.Requests != len(tr.Requests) || res.Accepted != accepted {
		t.Fatalf("result counts diverge from HTTP decisions: %+v (saw %d accepted)", res, accepted)
	}
	if res.DeadlineMisses > 0 {
		t.Fatalf("%d accepted jobs missed deadlines under the wall clock", res.DeadlineMisses)
	}
	for _, j := range res.Jobs {
		if j.Accepted && j.FinishTime == 0 {
			t.Fatalf("accepted job %d never finished: shutdown dropped in-flight work", j.ID)
		}
	}
}

// TestServeConcurrentSubmits hammers the intake from many goroutines to
// exercise the serialized-activation contract under the race detector:
// ids must come out dense and every decision re-readable.
func TestServeConcurrentSubmits(t *testing.T) {
	set, _ := testWorkload(t, trace.LessTight, 1, 100, 3)
	srv, err := New(Config{Engine: baseEngine(set), Clock: NewWallClock(1000)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	const workers, perWorker = 8, 10
	var wg sync.WaitGroup
	ids := make(chan int, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				rec, code := postRequest(t, srv.URL(), 0, 50)
				if code == http.StatusOK {
					ids <- rec.ID
				}
			}
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[int]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate decision id %d", id)
		}
		seen[id] = true
	}
	if len(seen) != workers*perWorker {
		t.Fatalf("got %d decisions, want %d", len(seen), workers*perWorker)
	}
	for id := range seen {
		var rec DecisionRecord
		resp, err := http.Get(fmt.Sprintf("%s/v1/decisions/%d", srv.URL(), id))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("decision %d: status %d", id, resp.StatusCode)
		}
		if err := json.Unmarshal(b, &rec); err != nil || rec.ID != id {
			t.Fatalf("decision %d: %v\n%s", id, err, b)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeObsPlaneMounted checks the introspection plane rides on the
// same listener as the API and sees the server's decisions through the
// chained state probe.
func TestServeObsPlaneMounted(t *testing.T) {
	set, _ := testWorkload(t, trace.LessTight, 1, 100, 5)
	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	cfg := baseEngine(set)
	cfg.Tracer = tracer
	plane := obs.NewPlane(obs.Options{Tracer: tracer})
	srv, err := New(Config{Engine: cfg, Clock: NewWallClock(1000), Plane: plane})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if _, code := postRequest(t, srv.URL(), 0, 50); code != http.StatusOK {
		t.Fatalf("submit: status %d", code)
	}
	get := func(path string) string {
		resp, err := http.Get(srv.URL() + path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d\n%s", path, resp.StatusCode, b)
		}
		return string(b)
	}
	if s := get("/healthz"); !strings.Contains(s, "ok") {
		t.Fatalf("healthz: %q", s)
	}
	if s := get("/statusz"); !strings.Contains(s, "\"requests\"") && !strings.Contains(s, "Requests") {
		t.Fatalf("statusz missing state: %q", s)
	}
	get("/metrics")
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeAPIValidation covers the rejection paths: malformed bodies
// (a second object or bytes after the first included), out-of-range
// types, non-positive deadlines, unknown decision ids, and the 503 intake
// fence after shutdown begins.
func TestServeAPIValidation(t *testing.T) {
	set, _ := testWorkload(t, trace.LessTight, 1, 100, 9)
	srv, err := New(Config{Engine: baseEngine(set), Clock: NewWallClock(1000)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	post := func(body string) int {
		resp, err := http.Post(srv.URL()+"/v1/requests", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := post("{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d", code)
	}
	if code := post(`{"type": 999, "deadline": 10}`); code != http.StatusBadRequest {
		t.Fatalf("unknown type: status %d", code)
	}
	if code := post(`{"type": 0, "deadline": 0}`); code != http.StatusBadRequest {
		t.Fatalf("zero deadline: status %d", code)
	}
	if code := post(`{"type": 0, "deadline": 10, "bogus": 1}`); code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d", code)
	}
	if code := post(`{"type":0,"deadline":10}{"type":1,"deadline":3}`); code != http.StatusBadRequest {
		t.Fatalf("two objects: status %d", code)
	}
	if code := post(`{"type":0,"deadline":10} x`); code != http.StatusBadRequest {
		t.Fatalf("trailing bytes: status %d", code)
	}
	resp, err := http.Get(srv.URL() + "/v1/decisions/0")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing decision: status %d", resp.StatusCode)
	}
	handler := srv.Handler()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The listener is gone; the handler itself must fence intake.
	req, _ := http.NewRequest(http.MethodPost, "/v1/requests", strings.NewReader(`{"type": 0, "deadline": 10}`))
	rw := &recordingWriter{header: http.Header{}}
	handler.ServeHTTP(rw, req)
	if rw.status != http.StatusServiceUnavailable {
		t.Fatalf("post after shutdown: status %d", rw.status)
	}
}

type recordingWriter struct {
	header http.Header
	status int
	buf    bytes.Buffer
}

func (w *recordingWriter) Header() http.Header { return w.header }
func (w *recordingWriter) WriteHeader(s int)   { w.status = s }
func (w *recordingWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.buf.Write(b)
}

// Decisions returns a copy of every decision taken so far, in request-id
// order.
func (s *Server) Decisions() []DecisionRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]DecisionRecord, len(s.decisions))
	copy(out, s.decisions)
	return out
}
