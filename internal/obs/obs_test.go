package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"predrm/internal/engine"
	"predrm/internal/exact"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sim"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
	"predrm/internal/traceview"
)

// fixture builds a small deterministic simulation with the exact solver so
// the FeasCache and solver counters the plane surfaces are live.
func fixture(t testing.TB) (engine.Config, *trace.Trace) {
	t.Helper()
	plat := platform.Default()
	tcfg := task.DefaultGenConfig()
	tcfg.NumTypes = 20
	set, err := task.Generate(plat, tcfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(set, trace.GenConfig{
		Length:           30,
		InterarrivalMean: 0.8,
		InterarrivalStd:  0.25,
		Tightness:        trace.VeryTight,
	}, rng.New(12))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := predict.NewOracle(tr, predict.OracleConfig{
		TypeAccuracy: 1,
		NumTypes:     set.Len(),
		Seed:         13,
	})
	if err != nil {
		t.Fatal(err)
	}
	return engine.Config{
		Platform:   plat,
		TaskSet:    set,
		Solver:     &exact.Optimal{},
		Predictor:  oracle,
		Provenance: true,
	}, tr
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("GET %s: read: %v", url, err)
	}
	return resp, body
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOpsServerSmoke is the end-to-end acceptance check: serve a plane on
// a random port, attach a live tail, run a simulation through it, and
// verify every endpoint — including that /trace/tail streamed exactly the
// bytes the JSONL sink recorded and that /statusz agrees with the run's
// own result.
func TestOpsServerSmoke(t *testing.T) {
	cfg, tr := fixture(t)
	var sink bytes.Buffer
	tracer := telemetry.NewTracer(telemetry.TracerOptions{Sink: &sink, RingSize: 1 << 16})
	reg := telemetry.NewRegistry()
	cfg.Tracer = tracer
	cfg.Metrics = reg
	plane := NewPlane(Options{Snapshot: reg.Snapshot, Tracer: tracer})
	cfg.StateProbe = plane.Probe

	srv, err := Serve("127.0.0.1:0", plane)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Attach the tail before the run starts so it observes every event.
	tailBody := make(chan []byte, 1)
	tailErr := make(chan error, 1)
	go func() {
		resp, err := http.Get(srv.URL() + "/trace/tail")
		if err != nil {
			tailErr <- err
			return
		}
		defer resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
			tailErr <- fmt.Errorf("tail content-type %q", ct)
			return
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			tailErr <- err
			return
		}
		tailBody <- b
	}()
	waitFor(t, "tail subscriber", func() bool { return tracer.Subscribers() == 1 })

	res, err := sim.Run(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := tracer.Flush(); err != nil {
		t.Fatal(err)
	}

	// /healthz and the index.
	resp, body := get(t, srv.URL()+"/healthz")
	if resp.StatusCode != http.StatusOK || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.StatusCode, body)
	}
	if _, body = get(t, srv.URL()+"/"); !bytes.Contains(body, []byte("/statusz")) {
		t.Fatalf("index does not list endpoints: %q", body)
	}

	// /metrics passes the exposition validator and carries both the
	// driver's instruments and the plane's own tracer gauges.
	resp, body = get(t, srv.URL()+"/metrics")
	if got := resp.Header.Get("Content-Type"); got != ContentType {
		t.Fatalf("metrics content-type %q, want %q", got, ContentType)
	}
	if errs := ValidateExposition(bytes.NewReader(body)); len(errs) > 0 {
		t.Fatalf("metrics failed validation: %v\n%s", errs, body)
	}
	for _, want := range []string{
		"exact_cache_hits", "telemetry_tracer_dropped",
		"sim_solver_seconds_bucket",
		"sim_reject_reason_no_feasible_mapping", "sim_admit_reason_",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing family %q:\n%s", want, body)
		}
	}
	if regexp.MustCompile(`(?m)^(# [A-Z]+ )?slo_`).Match(body) {
		t.Fatalf("metrics carries an slo_ family:\n%s", body)
	}

	// /statusz agrees with the run's own result and live counters.
	_, body = get(t, srv.URL()+"/statusz")
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statusz: %v\n%s", err, body)
	}
	if st.RM == nil || st.RM.Req != -1 {
		t.Fatalf("statusz RM sample is not the final one: %+v", st.RM)
	}
	if st.RM.Requests != res.Requests || st.RM.Accepted != res.Accepted || st.RM.Rejected != res.Rejected {
		t.Fatalf("statusz counters %+v disagree with result %d/%d/%d",
			st.RM, res.Requests, res.Accepted, res.Rejected)
	}
	if st.RM.InFlight != 0 {
		t.Fatalf("drained run reports %d in-flight jobs", st.RM.InFlight)
	}
	if len(st.RM.Resources) != cfg.Platform.Len() {
		t.Fatalf("statusz has %d resources, platform has %d", len(st.RM.Resources), cfg.Platform.Len())
	}
	snap := reg.Snapshot()
	hits, misses := snap.Counters["exact.cache.hits"], snap.Counters["exact.cache.misses"]
	if hits+misses == 0 {
		t.Fatal("exact solver ran but FeasCache saw no probes")
	}
	if st.FeasCache.Hits != hits || st.FeasCache.Misses != misses {
		t.Fatalf("statusz feascache %+v, registry %d/%d", st.FeasCache, hits, misses)
	}
	wantRate := float64(hits) / float64(hits+misses)
	if math.Abs(st.FeasCache.HitRate-wantRate) > 1e-9 {
		t.Fatalf("statusz hit rate %v, want %v", st.FeasCache.HitRate, wantRate)
	}
	if st.RM.DeadlineMisses != res.DeadlineMisses {
		t.Fatalf("statusz deadline misses %d, result %d", st.RM.DeadlineMisses, res.DeadlineMisses)
	}
	if st.RM.Finished != res.Accepted {
		t.Fatalf("drained run: statusz finished %d, result accepted %d", st.RM.Finished, res.Accepted)
	}

	// Per-reason admission histograms agree with the run's result.
	if res.Rejected == 0 {
		t.Fatal("fixture produced no rejections; reason histograms untested")
	}
	if got := st.Reasons.Reject[telemetry.ReasonNoFeasibleMapping]; got != int64(res.Rejected) {
		t.Fatalf("statusz reject reasons %v, result rejected %d", st.Reasons.Reject, res.Rejected)
	}
	var admitTotal int64
	for _, v := range st.Reasons.Admit {
		admitTotal += v
	}
	if admitTotal != int64(res.Accepted) {
		t.Fatalf("statusz admit reasons %v sum %d, result accepted %d",
			st.Reasons.Admit, admitTotal, res.Accepted)
	}

	// /explainz reconstructs a rejected request's decision narrative from
	// the tracer's ring.
	tl := traceview.BuildTimeline(&traceview.Decoded{Events: tracer.Events()})
	rejected := tl.RejectedRequests()
	if len(rejected) == 0 {
		t.Fatal("timeline lost the rejections")
	}
	resp, body = get(t, fmt.Sprintf("%s/explainz?req=%d", srv.URL(), rejected[0]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explainz: %d\n%s", resp.StatusCode, body)
	}
	var x traceview.Explanation
	if err := json.Unmarshal(body, &x); err != nil {
		t.Fatalf("explainz: %v\n%s", err, body)
	}
	if x.Prov == nil || len(x.Prov.Attempts) == 0 {
		t.Fatalf("explainz carries no provenance record:\n%s", body)
	}
	resp, body = get(t, fmt.Sprintf("%s/explainz?req=%d&text=1", srv.URL(), rejected[0]))
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "REJECTED") {
		t.Fatalf("explainz text: %d\n%s", resp.StatusCode, body)
	}

	// /debug/pprof is mounted.
	if resp, _ := get(t, srv.URL()+"/debug/pprof/"); resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index: %d", resp.StatusCode)
	}

	// Ending the run closes the tail stream; its NDJSON body must be
	// byte-identical to the JSONL trace the sink recorded.
	plane.Close()
	var streamed []byte
	select {
	case streamed = <-tailBody:
	case err := <-tailErr:
		t.Fatalf("tail: %v", err)
	case <-time.After(5 * time.Second):
		t.Fatal("tail stream did not terminate after plane.Close")
	}
	if d := tracer.FanoutDropped(); d != 0 {
		t.Fatalf("tail dropped %d events; byte-match comparison void", d)
	}
	if !bytes.Equal(streamed, sink.Bytes()) {
		t.Fatalf("tail stream (%d bytes) differs from sink trace (%d bytes)", len(streamed), len(sink.Bytes()))
	}
}

// TestTailWithoutTracer: the endpoint must refuse cleanly when the driver
// attached no tracer.
func TestTailWithoutTracer(t *testing.T) {
	plane := NewPlane(Options{})
	srv, err := Serve("127.0.0.1:0", plane)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, _ := get(t, srv.URL()+"/trace/tail")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tail without tracer: %d, want 503", resp.StatusCode)
	}
	if resp, _ := get(t, srv.URL()+"/trace/tail?buf=0"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("tail without tracer (buf): %d, want 503", resp.StatusCode)
	}
}

// TestTailSSE checks the Server-Sent-Events framing.
func TestTailSSE(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	plane := NewPlane(Options{Tracer: tracer})
	srv, err := Serve("127.0.0.1:0", plane)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	done := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(srv.URL() + "/trace/tail?sse=1")
		if err != nil {
			done <- nil
			return
		}
		defer resp.Body.Close()
		if resp.Header.Get("Content-Type") != "text/event-stream" {
			done <- nil
			return
		}
		b, _ := io.ReadAll(resp.Body)
		done <- b
	}()
	waitFor(t, "sse subscriber", func() bool { return tracer.Subscribers() == 1 })
	e := telemetry.NewEvent(1.5, telemetry.EvArrival)
	tracer.Emit(e)
	plane.Close()
	body := <-done
	if body == nil {
		t.Fatal("sse request failed")
	}
	line, _ := json.Marshal(func() telemetry.Event { e.Seq = 0; return e }())
	want := "data: " + string(line) + "\n\n" + "event: end\ndata: {}\n\n"
	if string(body) != want {
		t.Fatalf("sse body %q, want %q", body, want)
	}
}

// TestTailBadBuf rejects malformed ?buf values and any above the bound
// (the subscriber channel is allocated up front).
func TestTailBadBuf(t *testing.T) {
	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	plane := NewPlane(Options{Tracer: tracer})
	srv, err := Serve("127.0.0.1:0", plane)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	over := fmt.Sprintf("buf=%d", maxTailBuffer+1)
	for _, q := range []string{"buf=-1", "buf=0", "buf=zebra", over} {
		// Check the status before reading: an accepted tail streams until
		// the tracer closes.
		resp, err := http.Get(srv.URL() + "/trace/tail?" + q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			resp.Body.Close()
			t.Fatalf("?%s: %d, want 400", q, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !strings.Contains(string(body), strconv.Itoa(maxTailBuffer)) {
			t.Fatalf("?%s: error %q does not name the bound", q, body)
		}
	}
	if tracer.Subscribers() != 0 {
		t.Fatalf("rejected tails left %d subscribers", tracer.Subscribers())
	}
}

// TestExplainzErrors pins the endpoint's refusal modes: no tracer (503),
// missing or malformed ?req (400), and a request outside the ring (404).
func TestExplainzErrors(t *testing.T) {
	bare := NewPlane(Options{})
	srvBare, err := Serve("127.0.0.1:0", bare)
	if err != nil {
		t.Fatal(err)
	}
	defer srvBare.Close()
	if resp, _ := get(t, srvBare.URL()+"/explainz?req=0"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("explainz without tracer: %d, want 503", resp.StatusCode)
	}

	tracer := telemetry.NewTracer(telemetry.TracerOptions{})
	plane := NewPlane(Options{Tracer: tracer})
	srv, err := Serve("127.0.0.1:0", plane)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, q := range []string{"", "?req=", "?req=zebra"} {
		if resp, _ := get(t, srv.URL()+"/explainz"+q); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("explainz%s: %d, want 400", q, resp.StatusCode)
		}
	}
	if resp, _ := get(t, srv.URL()+"/explainz?req=42"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("explainz for absent request: %d, want 404", resp.StatusCode)
	}
}

// TestPlaneProbeConcurrentStatusz drives StateProbe, the per-reason
// counters, and tracer emission from a writer goroutine while /statusz,
// /metrics, and /explainz scrape concurrently — the race detector guards
// the plane's synchronization (make check runs it under -race).
func TestPlaneProbeConcurrentStatusz(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(telemetry.TracerOptions{RingSize: 256})
	plane := NewPlane(Options{Snapshot: reg.Snapshot, Tracer: tracer})
	srv, err := Serve("127.0.0.1:0", plane)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		resources := []engine.ResourceSample{{Jobs: 1}}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			plane.Probe(engine.StateSample{
				Time: float64(i), Req: i, Requests: i + 1, Resources: resources,
			})
			reg.Counter("sim.reject_reason." + telemetry.ReasonNoFeasibleMapping).Add(1)
			reg.Counter("sim.admit_reason." + telemetry.ReasonPlain).Add(1)
			e := telemetry.NewEvent(float64(i), telemetry.EvReject)
			e.Req, e.Task, e.Reason = i, 0, telemetry.ReasonNoFeasibleMapping
			tracer.Emit(e)
		}
	}()

	var scrapers sync.WaitGroup
	for _, path := range []string{"/statusz", "/metrics", "/explainz?req=0", "/explainz?req=0&text=1"} {
		path := path
		scrapers.Add(1)
		go func() {
			defer scrapers.Done()
			for i := 0; i < 50; i++ {
				resp, err := http.Get(srv.URL() + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	scrapers.Wait()
	close(stop)
	writer.Wait()

	_, body := get(t, srv.URL()+"/statusz")
	var st Status
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatalf("statusz: %v\n%s", err, body)
	}
	if st.Reasons.Reject[telemetry.ReasonNoFeasibleMapping] == 0 {
		t.Fatalf("reject reason counter missing after concurrent run: %+v", st.Reasons)
	}
}

// TestPlaneProbePublishes: every probe, the final Req == -1 sample
// included, becomes the published state, and the published copy must not
// alias the caller's Resources slice.
func TestPlaneProbePublishes(t *testing.T) {
	plane := NewPlane(Options{})
	resources := []engine.ResourceSample{{Jobs: 1}}
	plane.Probe(engine.StateSample{Time: 0, Req: 0, Requests: 1, Resources: resources})
	if got := plane.state.Load(); got.Req != 0 || got.Requests != 1 {
		t.Fatalf("first sample not published: %+v", got)
	}
	plane.Probe(engine.StateSample{Time: 1, Req: 1, Requests: 2, Resources: resources})
	if got := plane.state.Load(); got.Req != 1 || got.Requests != 2 {
		t.Fatalf("second sample not published: %+v", got)
	}
	plane.Probe(engine.StateSample{Time: 2, Req: -1, Requests: 2, Resources: resources})
	got := plane.state.Load()
	if got.Req != -1 || got.Requests != 2 {
		t.Fatalf("final sample not published: %+v", got)
	}
	resources[0].Jobs = 99
	if got.Resources[0].Jobs != 1 {
		t.Fatal("published sample aliases the probe's Resources slice")
	}
}
