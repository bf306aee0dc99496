package traceview

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"predrm/internal/telemetry"
)

// chromeFixture is a small handcrafted stream exercising every slice kind:
// plain execution on two resources, a reserved gap that is honoured, and a
// GPU reservation replaced before its window opened, which names the GPU
// track but leaves it empty.
func chromeFixture() *Decoded {
	mk := func(seq int64, t float64, typ telemetry.EventType, req, task, res int, value float64, reason string) telemetry.Event {
		return telemetry.Event{Seq: seq, T: t, Type: typ, Req: req, Task: task, Res: res, Value: value, Reason: reason}
	}
	return &Decoded{Events: []telemetry.Event{
		mk(0, 0, telemetry.EvArrival, 0, 3, -1, 5, ""),
		mk(1, 0, telemetry.EvAdmit, 0, 3, 0, 0, "plain"),
		mk(2, 0, telemetry.EvJobStart, 0, 3, 0, 1, "start"),
		mk(3, 0, telemetry.EvReservationPlanned, 0, 7, 2, 4.0, ""),
		mk(4, 0.5, telemetry.EvReservationPlanned, 1, 4, 1, 0.8, ""),
		mk(5, 1.0, telemetry.EvArrival, 1, 4, -1, 6, ""),
		mk(6, 1.0, telemetry.EvAdmit, 1, 4, 1, 0, "plain"),
		mk(7, 1.0, telemetry.EvReservationHonoured, 1, 4, 1, 0.8, ""),
		mk(8, 1.0, telemetry.EvJobStart, 1, 4, 1, 1, "start"),
		mk(9, 2.0, telemetry.EvJobFinish, 0, 3, 0, 3.5, ""),
		mk(10, 3.0, telemetry.EvJobFinish, 1, 4, 1, 2.0, ""),
	}}
}

// TestChromeTraceGolden locks the Perfetto export byte-for-byte and checks
// the output is one valid JSON document of well-formed trace events.
// Regenerate with: go test ./internal/traceview -run Chrome -update-golden
func TestChromeTraceGolden(t *testing.T) {
	tl := BuildTimeline(chromeFixture())
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, tl, []string{"CPU1", "CPU2", "GPU1"}); err != nil {
		t.Fatal(err)
	}

	// The whole export must parse as a single trace-event document.
	var doc struct {
		DisplayTimeUnit string           `json:"displayTimeUnit"`
		TraceEvents     []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	phases := map[string]int{}
	for i, e := range doc.TraceEvents {
		ph, _ := e["ph"].(string)
		if ph == "" {
			t.Fatalf("event %d has no phase: %v", i, e)
		}
		phases[ph]++
	}
	// 1 process + 3 thread metadata rows, 3 slices (2 exec + 1
	// reservation), and one counter sample per in-flight step.
	if phases["M"] != 4 || phases["X"] != 3 || phases["C"] != 4 {
		t.Fatalf("phase census M=%d X=%d C=%d, want 4/3/4", phases["M"], phases["X"], phases["C"])
	}

	golden := filepath.Join("testdata", "chrome.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("chrome export diverged from %s (rerun with -update-golden if intended);\ngot:\n%s", golden, buf.Bytes())
	}
}
