package traceview

import (
	"strings"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/telemetry"
)

// simGolden is the simulator's golden event trace (a full fixture run with
// prediction); the auditor must find it spotless.
const simGolden = "../sim/testdata/events.golden.jsonl"

func readGolden(t *testing.T) *Decoded {
	t.Helper()
	d, err := ReadFile(simGolden)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Diags) != 0 {
		t.Fatalf("golden trace has reader diagnostics: %v", d.Diags)
	}
	return d
}

// auditOpts supplies the fixture's platform (5 CPUs + 1 GPU); it is not
// serialised into traces.
func auditOpts() AuditOptions {
	return AuditOptions{Platform: platform.Default()}
}

// TestAuditGoldenClean checks the recorded fixture run satisfies every
// resource-manager invariant.
func TestAuditGoldenClean(t *testing.T) {
	if vs := Audit(readGolden(t), auditOpts()); len(vs) != 0 {
		t.Fatalf("golden trace has violations:\n%v", vs)
	}
}

// kindCensus counts violations by kind.
func kindCensus(vs []Violation) map[ViolationKind]int {
	m := make(map[ViolationKind]int)
	for _, v := range vs {
		m[v.Kind]++
	}
	return m
}

// TestAuditDetectsDeadlineMiss injects a deadline violation into the golden
// trace — one admitted request's completion is pushed past its deadline —
// and checks the auditor flags exactly that request.
func TestAuditDetectsDeadlineMiss(t *testing.T) {
	d := readGolden(t)
	tl := BuildTimeline(d)

	// Pick the first admitted request that finished, then stamp its
	// job_finish past the deadline.
	victim := -1
	for _, o := range tl.SortedRequests() {
		if o.Admitted && o.HasArrival && o.Finished {
			victim = o.Req
			break
		}
	}
	if victim < 0 {
		t.Fatal("golden trace has no finished admitted request")
	}
	deadline := tl.Requests[victim].Deadline
	for i := range d.Events {
		e := &d.Events[i]
		if e.Type == telemetry.EvJobFinish && e.Req == victim {
			e.T = deadline + 1
		}
	}

	vs := Audit(d, auditOpts())
	if len(vs) == 0 {
		t.Fatal("auditor missed the injected deadline violation")
	}
	found := false
	for _, v := range vs {
		if v.Kind == VDeadlineMiss && v.Req == victim {
			found = true
		} else if v.Kind == VDeadlineMiss {
			t.Errorf("deadline miss reported for untouched request %d", v.Req)
		}
	}
	if !found {
		t.Fatalf("no %v for request %d in %v", VDeadlineMiss, victim, vs)
	}
}

// TestAuditDetectsMissingCompletion deletes an admitted request's
// job_finish: with no ring drops to blame, the absence is a violation.
func TestAuditDetectsMissingCompletion(t *testing.T) {
	d := readGolden(t)
	tl := BuildTimeline(d)

	// The victim's deadline must precede the trace end, or silence would
	// be legitimate (the run may simply stop before the job is due).
	victim := -1
	for _, o := range tl.SortedRequests() {
		if o.Admitted && o.HasArrival && o.Finished && o.Deadline < tl.End {
			victim = o.Req
			break
		}
	}
	if victim < 0 {
		t.Fatal("no finished request with deadline inside the trace span")
	}
	kept := d.Events[:0]
	for _, e := range d.Events {
		if e.Type == telemetry.EvJobFinish && e.Req == victim {
			continue
		}
		kept = append(kept, e)
	}
	d.Events = kept

	census := kindCensus(Audit(d, auditOpts()))
	if census[VMissingCompletion] != 1 {
		t.Fatalf("want one %v, census %v", VMissingCompletion, census)
	}
}

// TestAuditDetectsGPUPreemption injects a preemption on the fixture's
// non-preemptable GPU (resource 5).
func TestAuditDetectsGPUPreemption(t *testing.T) {
	d := readGolden(t)
	plat := platform.Default()
	gpu := plat.Len() - 1
	if plat.Resource(gpu).Preemptable() {
		t.Fatalf("fixture resource %d unexpectedly preemptable", gpu)
	}
	last := d.Events[len(d.Events)-1]
	ev := telemetry.NewEvent(last.T, telemetry.EvJobPreempt)
	ev.Seq = last.Seq + 1
	ev.Req = 0
	ev.Res = gpu
	ev.Reason = "displaced"
	d.Events = append(d.Events, ev)

	census := kindCensus(Audit(d, AuditOptions{Platform: plat}))
	if census[VGPUPreempted] != 1 {
		t.Fatalf("want one %v, census %v", VGPUPreempted, census)
	}
}

// TestAuditDetectsRejectedExecuted puts a rejected request on a resource.
func TestAuditDetectsRejectedExecuted(t *testing.T) {
	d := readGolden(t)
	tl := BuildTimeline(d)
	victim := -1
	for _, o := range tl.SortedRequests() {
		if o.Rejected && !o.Admitted {
			victim = o.Req
			break
		}
	}
	if victim < 0 {
		t.Fatal("golden trace has no rejected request")
	}
	last := d.Events[len(d.Events)-1]
	ev := telemetry.NewEvent(last.T, telemetry.EvJobStart)
	ev.Seq = last.Seq + 1
	ev.Req = victim
	ev.Res = 0
	ev.Reason = "start"
	d.Events = append(d.Events, ev)

	census := kindCensus(Audit(d, auditOpts()))
	if census[VRejectedExecuted] != 1 {
		t.Fatalf("want one %v, census %v", VRejectedExecuted, census)
	}
}

// TestAuditRingDropSoftensAbsence checks that with Dropped > 0 the
// absence-based checks stand down: deleting a completion from a trace that
// also lost events to the ring must not report a violation.
func TestAuditRingDropSoftensAbsence(t *testing.T) {
	d := readGolden(t)
	tl := BuildTimeline(d)
	victim := -1
	for _, o := range tl.SortedRequests() {
		if o.Admitted && o.HasArrival && o.Finished && o.Deadline < tl.End {
			victim = o.Req
			break
		}
	}
	if victim < 0 {
		t.Fatal("no suitable victim")
	}
	kept := d.Events[:0]
	for _, e := range d.Events {
		if e.Type == telemetry.EvJobFinish && e.Req == victim {
			continue
		}
		kept = append(kept, e)
	}
	d.Events = kept
	d.Dropped = 3 // pretend the ring overwrote events

	census := kindCensus(Audit(d, auditOpts()))
	if census[VMissingCompletion] != 0 {
		t.Fatalf("absence check fired despite ring drops: %v", census)
	}
}

// TestAuditReservationDropped replays synthetic streams in which a
// reservation for a predicted arrival at t=3 is planned at t=0. It owes a
// reservation_honoured event when the next activation comes after the
// predicted arrival, and nothing when it comes before.
func TestAuditReservationDropped(t *testing.T) {
	planned := []string{
		`{"seq":0,"t":0,"type":"arrival","req":0,"task":1,"res":-1,"value":10}`,
		`{"seq":1,"t":0,"type":"admit","req":0,"task":1,"res":0}`,
		`{"seq":2,"t":0,"type":"reservation_planned","req":0,"task":-1,"res":5,"value":3}`,
	}
	boundary := func(at string) []string {
		return []string{
			`{"seq":3,"t":` + at + `,"type":"arrival","req":1,"task":2,"res":-1,"value":20}`,
			`{"seq":4,"t":` + at + `,"type":"reject","req":1,"task":2,"res":-1}`,
		}
	}
	honoured := `{"seq":5,"t":4,"type":"reservation_honoured","req":-1,"task":-1,"res":5,"value":3}`
	for _, c := range []struct {
		name   string
		lines  []string
		broken int
	}{
		{"boundary after arrival, not honoured", boundary("4"), 1},
		{"boundary after arrival, honoured", append(boundary("4"), honoured), 0},
		{"boundary before arrival", boundary("2"), 0},
	} {
		stream := strings.Join(append(append([]string{}, planned...), c.lines...), "\n") + "\n"
		d, err := Read(strings.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if len(d.Diags) != 0 {
			t.Fatalf("%s: reader diagnostics %v", c.name, d.Diags)
		}
		vs := Audit(d, auditOpts())
		if got := kindCensus(vs)[VReservationDropped]; got != c.broken || len(vs) != c.broken {
			t.Errorf("%s: %d %v of %d violations %v, want %d", c.name, got, VReservationDropped, len(vs), vs, c.broken)
		}
	}
}
