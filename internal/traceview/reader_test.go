package traceview

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"strings"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// randomEvents builds a schema-conforming event stream with non-decreasing
// simulated time: the round-trip property holds for any such stream, not
// just the simulator's.
func randomEvents(r *rand.Rand, n int) []telemetry.Event {
	types := telemetry.KnownEventTypes()
	vocab := telemetry.ReasonVocabulary()
	out := make([]telemetry.Event, n)
	t := 0.0
	for i := range out {
		t += r.Float64()
		e := telemetry.NewEvent(t, types[r.Intn(len(types))])
		if r.Intn(2) == 0 {
			e.Req = r.Intn(100)
		}
		if r.Intn(2) == 0 {
			e.Task = r.Intn(20)
		}
		if r.Intn(2) == 0 {
			e.Res = r.Intn(6)
		}
		e.Value = float64(r.Intn(1000)) / 8 // exactly representable
		e.WallNs = int64(r.Intn(100_000))
		// Reasons must come from the type's enumerated vocabulary; the
		// reader flags anything else as a DiagUnknownReason.
		if reasons := vocab[e.Type]; len(reasons) > 0 && r.Intn(3) == 0 {
			e.Reason = reasons[r.Intn(len(reasons))]
		}
		out[i] = e
	}
	return out
}

// TestReadRoundTrip checks Event -> Tracer sink (JSONL) -> Read is the
// identity on random schema-conforming streams, with zero diagnostics.
func TestReadRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 20; round++ {
		events := randomEvents(r, 1+r.Intn(200))
		var sink bytes.Buffer
		tracer := telemetry.NewTracer(telemetry.TracerOptions{Sink: &sink})
		for _, e := range events {
			tracer.Emit(e)
		}
		if err := tracer.Flush(); err != nil {
			t.Fatal(err)
		}

		d, err := Read(&sink)
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Diags) != 0 {
			t.Fatalf("round %d: unexpected diagnostics: %v", round, d.Diags)
		}
		if d.Dropped != 0 {
			t.Fatalf("round %d: dropped %d from a gap-free stream", round, d.Dropped)
		}
		if len(d.Events) != len(events) {
			t.Fatalf("round %d: got %d events, want %d", round, len(d.Events), len(events))
		}
		for i, got := range d.Events {
			want := events[i]
			want.Seq = int64(i) // the tracer assigns sequence numbers
			if got != want {
				t.Fatalf("round %d event %d: got %+v, want %+v", round, i, got, want)
			}
		}
	}
}

// TestReadRingDrop checks that dumping an overflowed ring produces a
// leading sequence-gap diagnostic whose inferred drop count matches the
// tracer's own accounting.
func TestReadRingDrop(t *testing.T) {
	const ringSize, emitted = 8, 20
	r := rand.New(rand.NewSource(7))
	tracer := telemetry.NewTracer(telemetry.TracerOptions{RingSize: ringSize})
	for _, e := range randomEvents(r, emitted) {
		tracer.Emit(e)
	}
	if got := tracer.Dropped(); got != emitted-ringSize {
		t.Fatalf("tracer dropped %d, want %d", got, emitted-ringSize)
	}

	var buf bytes.Buffer
	for _, e := range tracer.Events() {
		line, err := json.Marshal(e)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	d, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != ringSize {
		t.Fatalf("got %d events, want %d", len(d.Events), ringSize)
	}
	if d.Dropped != emitted-ringSize {
		t.Fatalf("inferred %d dropped, want %d", d.Dropped, emitted-ringSize)
	}
	if len(d.Diags) != 1 || d.Diags[0].Kind != DiagSequenceGap {
		t.Fatalf("want one leading %v diagnostic, got %v", DiagSequenceGap, d.Diags)
	}
	if d.Diags[0].Line != 1 {
		t.Fatalf("gap reported on line %d, want 1", d.Diags[0].Line)
	}
}

// TestReadDiagnostics checks each damage mode surfaces as its typed
// diagnostic without aborting the read.
func TestReadDiagnostics(t *testing.T) {
	stream := strings.Join([]string{
		`{"seq":0,"t":1,"type":"arrival","req":0,"task":1,"res":-1,"value":4}`,
		`not json at all`,
		`{"seq":1,"t":2,"type":"wormhole","req":-1,"task":-1,"res":-1}`,
		`{"seq":1,"t":2,"type":"admit","req":0,"task":1,"res":0}`,
		`{"seq":2,"t":1.5,"type":"job_start","req":0,"task":1,"res":0}`,
		// Event types and reasons older traces carry that the schema no
		// longer has: work-conserving backfill and the critical workload.
		`{"seq":3,"t":2,"type":"reservation_backfilled","req":0,"task":-1,"res":5,"value":3}`,
		`{"seq":4,"t":2,"type":"critical_release","req":-1,"task":0,"res":0,"value":0}`,
		`{"seq":5,"t":2.5,"type":"job_finish","req":-1,"task":0,"res":0,"value":1,"reason":"critical"}`,
		// Resource ids outside [-1, platform.MaxResources) are malformed.
		`{"seq":6,"t":3,"type":"admit","req":1,"task":1,"res":-5}`,
		`{"seq":7,"t":3,"type":"job_start","req":1,"task":1,"res":1048576}`,
	}, "\n") + "\n"
	d, err := Read(strings.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 7 { // the malformed lines are skipped, the rest kept
		t.Fatalf("got %d events, want 7", len(d.Events))
	}
	kinds := make(map[DiagKind]int)
	for _, diag := range d.Diags {
		kinds[diag.Kind]++
		// A line that decoded (its seq is known) was refused for its res.
		if diag.Kind == DiagMalformedLine && diag.Seq >= 0 && !strings.Contains(diag.Detail, "res") {
			t.Errorf("diagnostic %v does not name the res field", diag)
		}
	}
	for want, n := range map[DiagKind]int{
		DiagMalformedLine: 3, DiagUnknownEventType: 3, DiagUnknownReason: 1,
		DiagSequenceRegression: 1, DiagTimeRegression: 1,
	} {
		if kinds[want] != n {
			t.Errorf("want exactly %d %v, got %d (all: %v)", n, want, kinds[want], d.Diags)
		}
	}
	// The timeline and the auditor skip unknown types without panicking.
	Audit(d, auditOpts())
}

// negResTrace is a four-line trace whose admission and lifecycle events
// name resource -5, an index no per-resource table can take.
const negResTrace = `{"seq":0,"t":0,"type":"arrival","req":0,"task":0,"res":-1,"value":5}
{"seq":1,"t":0,"type":"admit","req":0,"task":0,"res":-5,"reason":"plain"}
{"seq":2,"t":0,"type":"job_start","req":0,"task":0,"res":-5,"value":1,"reason":"start"}
{"seq":3,"t":1,"type":"job_finish","req":0,"task":0,"res":-5,"value":2}
`

// TestReportSurvivesOutOfRangeResource checks that a report over a trace
// naming a negative resource drops those events with a diagnostic
// instead of panicking.
func TestReportSurvivesOutOfRangeResource(t *testing.T) {
	d, err := Read(strings.NewReader(negResTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 1 || len(d.Diags) != 3 {
		t.Fatalf("got %d events and diagnostics %v, want 1 event and 3 diagnostics", len(d.Events), d.Diags)
	}
	var out bytes.Buffer
	if err := WriteReport(&out, BuildTimeline(d), platform.New(5, 1), 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "field res = -5") {
		t.Fatalf("report does not show the diagnostic:\n%s", out.String())
	}
}

// hugeResTrace is a one-line trace naming the largest valid resource id.
const hugeResTrace = `{"seq":0,"t":0,"type":"admit","req":0,"task":0,"res":1048575,"reason":"plain"}
`

// TestReportBoundedByUsedResources: a single event naming resource
// 1048575 yields one utilization line and one Chrome track, not one per
// id below it.
func TestReportBoundedByUsedResources(t *testing.T) {
	d, err := Read(strings.NewReader(hugeResTrace))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 1 || len(d.Diags) != 0 {
		t.Fatalf("got %d events and diagnostics %v, want 1 event and none", len(d.Events), d.Diags)
	}
	tl := BuildTimeline(d)
	var report bytes.Buffer
	if err := WriteReport(&report, tl, platform.New(5, 1), 40); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(report.String(), "utilization "); n != 1 || !strings.Contains(report.String(), "utilization R1048575:") ||
		!strings.Contains(report.String(), "(1 resources referenced)") {
		t.Fatalf("%d utilization lines, want one resource referenced and one line for R1048575:\n%s", n, report.String())
	}
	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, tl, nil); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(chrome.String(), `"thread_name"`); n != 1 || !strings.Contains(chrome.String(), `"tid":1048576`) {
		t.Fatalf("%d Chrome tracks, want one for tid 1048576:\n%s", n, chrome.String())
	}
}
