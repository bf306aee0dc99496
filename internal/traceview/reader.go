// Package traceview consumes the structured JSONL event traces emitted by
// internal/telemetry: a validating streaming reader, a timeline
// reconstructor that folds the event stream back into per-resource
// execution/idle/reserved intervals and derived series, exporters (Chrome
// trace-event JSON for Perfetto, CSV timeseries, a gantt text report), a
// replay auditor that re-checks the resource manager's invariants purely
// from the trace, and a two-trace diff. cmd/tracetool wires it all into a
// CLI.
//
// The package is deliberately decoupled from the simulator: everything is
// reconstructed from the event schema alone, so any saved trace — from
// this repository or a foreign emitter speaking the same schema — can be
// analysed and audited after the fact.
package traceview

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"

	"predrm/internal/platform"
	"predrm/internal/telemetry"
)

// DiagKind classifies a reader diagnostic.
type DiagKind int

const (
	// DiagMalformedLine marks a line that did not decode into the event
	// schema, or whose resource id lies outside [-1, platform.MaxResources);
	// the line is skipped.
	DiagMalformedLine DiagKind = iota
	// DiagUnknownEventType marks an event whose type is not part of the
	// known schema (newer emitter, foreign trace); the event is kept.
	DiagUnknownEventType
	// DiagSequenceGap marks missing sequence numbers — ring-buffer drops
	// or a truncated file. Decoded.Dropped totals the missing events.
	DiagSequenceGap
	// DiagSequenceRegression marks a sequence number at or below its
	// predecessor (concatenated or corrupted streams).
	DiagSequenceRegression
	// DiagTimeRegression marks simulated time moving backwards between
	// consecutive events. Regressions are legitimate under non-zero
	// decision overhead — activations are processed sequentially even
	// when their windows overlap the next arrival — so this is a
	// warning, not an error.
	DiagTimeRegression
	// DiagUnknownReason marks an event whose reason string is not in the
	// enumerated vocabulary for its type (telemetry.KnownReason): a renamed
	// constant, a free-text reason, or a foreign emitter. The event is
	// kept.
	DiagUnknownReason
)

// String names the kind.
func (k DiagKind) String() string {
	switch k {
	case DiagMalformedLine:
		return "malformed_line"
	case DiagUnknownEventType:
		return "unknown_event_type"
	case DiagSequenceGap:
		return "sequence_gap"
	case DiagSequenceRegression:
		return "sequence_regression"
	case DiagTimeRegression:
		return "time_regression"
	case DiagUnknownReason:
		return "unknown_reason"
	default:
		return fmt.Sprintf("DiagKind(%d)", int(k))
	}
}

// Diagnostic is one typed reader finding. Diagnostics never abort a read:
// a damaged trace decodes into whatever survives plus the list of what is
// wrong with it.
type Diagnostic struct {
	// Line is the 1-based line number in the stream.
	Line int
	// Seq is the sequence number involved, or -1 when unavailable.
	Seq int64
	// Kind classifies the problem.
	Kind DiagKind
	// Detail is a human-readable elaboration.
	Detail string
}

// String formats the diagnostic for reports.
func (d Diagnostic) String() string {
	return fmt.Sprintf("line %d (seq %d): %s: %s", d.Line, d.Seq, d.Kind, d.Detail)
}

// Decoded is the result of reading one JSONL trace.
type Decoded struct {
	// Events holds every decoded event in stream order.
	Events []telemetry.Event
	// Diags lists schema problems found while reading.
	Diags []Diagnostic
	// Dropped is the total number of events lost to sequence gaps (ring
	// overwrites or truncation), inferred from the gaps themselves.
	Dropped int64
}

// knownTypes is the schema's event-type set.
var knownTypes = func() map[telemetry.EventType]bool {
	m := make(map[telemetry.EventType]bool)
	for _, t := range telemetry.KnownEventTypes() {
		m[t] = true
	}
	return m
}()

// Decoder validates a JSONL event stream one line at a time, carrying the
// cross-line state (line numbers, sequence and time continuity) between
// calls. Read wraps it for whole files; the tracetool tail follower feeds
// it incrementally as a trace file grows.
type Decoder struct {
	line    int
	prevSeq int64
	prevT   float64
	dropped int64
}

// NewDecoder returns a decoder at the start of a stream.
func NewDecoder() *Decoder {
	return &Decoder{prevSeq: -1, prevT: math.Inf(-1)}
}

// Dropped totals the events lost to sequence gaps seen so far.
func (d *Decoder) Dropped() int64 { return d.dropped }

// Line returns the number of lines consumed so far.
func (d *Decoder) Line() int { return d.line }

// Decode validates one raw line. ok reports whether e holds a decoded
// event (blank and malformed lines yield ok == false); diags lists any
// findings for the line, in the same typed form Read accumulates.
func (d *Decoder) Decode(raw []byte) (e telemetry.Event, diags []Diagnostic, ok bool) {
	d.line++
	if len(raw) == 0 {
		return telemetry.Event{}, nil, false
	}
	if err := json.Unmarshal(raw, &e); err != nil {
		return telemetry.Event{}, []Diagnostic{{
			Line: d.line, Seq: -1, Kind: DiagMalformedLine, Detail: err.Error(),
		}}, false
	}
	if e.Res < -1 || e.Res >= platform.MaxResources {
		return telemetry.Event{}, []Diagnostic{{
			Line: d.line, Seq: e.Seq, Kind: DiagMalformedLine,
			Detail: fmt.Sprintf("field res = %d outside [-1, %d)", e.Res, platform.MaxResources),
		}}, false
	}
	if !knownTypes[e.Type] {
		diags = append(diags, Diagnostic{
			Line: d.line, Seq: e.Seq, Kind: DiagUnknownEventType,
			Detail: fmt.Sprintf("event type %q is not in the schema", e.Type),
		})
	} else if !telemetry.KnownReason(e.Type, e.Reason) {
		// Only validate reasons on known types: a foreign type's reasons
		// are not ours to judge, and the unknown-type diagnostic already
		// flags the line.
		diags = append(diags, Diagnostic{
			Line: d.line, Seq: e.Seq, Kind: DiagUnknownReason,
			Detail: fmt.Sprintf("reason %q is not in %q's vocabulary", e.Reason, e.Type),
		})
	}
	switch {
	case e.Seq > d.prevSeq+1:
		missing := e.Seq - d.prevSeq - 1
		d.dropped += missing
		diags = append(diags, Diagnostic{
			Line: d.line, Seq: e.Seq, Kind: DiagSequenceGap,
			Detail: fmt.Sprintf("%d event(s) missing before seq %d (ring drop or truncation)", missing, e.Seq),
		})
	case e.Seq <= d.prevSeq:
		diags = append(diags, Diagnostic{
			Line: d.line, Seq: e.Seq, Kind: DiagSequenceRegression,
			Detail: fmt.Sprintf("seq %d follows seq %d", e.Seq, d.prevSeq),
		})
	}
	if e.T < d.prevT-timeEps {
		diags = append(diags, Diagnostic{
			Line: d.line, Seq: e.Seq, Kind: DiagTimeRegression,
			Detail: fmt.Sprintf("t=%.6f follows t=%.6f", e.T, d.prevT),
		})
	}
	d.prevSeq = e.Seq
	d.prevT = e.T
	return e, diags, true
}

// Read decodes a JSONL event stream. It returns an error only for I/O
// failures; content problems become typed diagnostics on the result.
func Read(r io.Reader) (*Decoded, error) {
	d := &Decoded{}
	dec := NewDecoder()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		e, diags, ok := dec.Decode(sc.Bytes())
		d.Diags = append(d.Diags, diags...)
		if ok {
			d.Events = append(d.Events, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("traceview: read: %w", err)
	}
	d.Dropped = dec.Dropped()
	return d, nil
}

// ReadFile decodes the JSONL trace at path.
func ReadFile(path string) (*Decoded, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}

// timeEps is the tolerance for simulated-time comparisons throughout the
// package, matching the simulator's own epsilon regime.
const timeEps = 1e-6
