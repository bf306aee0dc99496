package traceview

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"predrm/internal/platform"
)

// FuzzDecodeTimeline feeds arbitrary JSONL through every consumer of a
// decoded trace: the reader, the timeline, its summary, the report with a
// Gantt chart, the Chrome and CSV exporters, the auditor, the diff and the
// per-request explanation. A hostile trace may yield diagnostics and
// violations, never a panic.
func FuzzDecodeTimeline(f *testing.F) {
	f.Add([]byte(negResTrace))
	f.Add([]byte(hugeResTrace))
	f.Add([]byte(`{"seq":0,"t":0,"type":"job_start","req":-3,"task":0,"res":-1}` + "\n"))
	if golden, err := os.ReadFile(filepath.Join("..", "sim", "testdata", "events.golden.jsonl")); err == nil {
		lines := strings.SplitAfter(string(golden), "\n")
		f.Add([]byte(strings.Join(lines[:min(len(lines), 24)], "")))
	}
	plat := platform.Default()
	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := Read(strings.NewReader(string(raw)))
		if err != nil {
			return // an over-long line is an I/O error, not a panic
		}
		tl := BuildTimeline(d)
		sum := tl.Summarize()
		if err := WriteReport(io.Discard, tl, plat, 40); err != nil {
			// The only error is the Gantt chart refusing a malformed
			// segment, which the report passes on.
			if !strings.HasPrefix(err.Error(), "gantt:") {
				t.Fatalf("report: %v", err)
			}
		}
		if err := WriteChromeTrace(io.Discard, tl, nil); err != nil {
			t.Fatalf("chrome: %v", err)
		}
		if err := WriteCSV(io.Discard, d); err != nil {
			t.Fatalf("csv: %v", err)
		}
		Audit(d, AuditOptions{Platform: plat})
		if err := WriteDiff(io.Discard, "a", sum, "b", sum); err != nil {
			t.Fatalf("diff: %v", err)
		}
		for _, req := range tl.RejectedRequests() {
			if x, err := Explain(tl, req); err == nil {
				if err := WriteExplanation(io.Discard, x); err != nil {
					t.Fatalf("explain: %v", err)
				}
			}
		}
	})
}
