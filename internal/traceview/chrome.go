package traceview

import (
	"encoding/json"
	"fmt"
	"io"
)

// Chrome trace-event export: the reconstructed timeline as a JSON file
// loadable in Perfetto (ui.perfetto.dev) or chrome://tracing. One track
// (thread) per resource carries execution and reservation slices; a
// counter track shows the in-flight admitted job count. One simulated
// time unit is exported as one second (ts/dur are microseconds).

// chromeSlice is a complete ("X") duration event.
type chromeSlice struct {
	Name string          `json:"name"`
	Cat  string          `json:"cat"`
	Ph   string          `json:"ph"`
	Pid  int             `json:"pid"`
	Tid  int             `json:"tid"`
	Ts   float64         `json:"ts"`
	Dur  float64         `json:"dur"`
	Args chromeSliceArgs `json:"args"`
}

type chromeSliceArgs struct {
	Job  int `json:"job"`
	Task int `json:"task"`
}

// chromeMeta is a metadata ("M") event naming a process or thread.
type chromeMeta struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args chromeMetaArgs `json:"args"`
}

type chromeMetaArgs struct {
	Name string `json:"name"`
}

// chromeCounter is a counter ("C") sample.
type chromeCounter struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Ts   float64           `json:"ts"`
	Args chromeCounterArgs `json:"args"`
}

type chromeCounterArgs struct {
	Jobs float64 `json:"jobs"`
}

const chromePid = 1

// usec converts simulated time to exported microseconds (1 unit = 1 s).
func usec(t float64) float64 { return t * 1e6 }

// WriteChromeTrace exports the timeline in Chrome trace-event format, one
// track per resource that carries an event. names labels the tracks;
// missing entries fall back to "R<id>".
func WriteChromeTrace(w io.Writer, tl *Timeline, names []string) error {
	var events []any
	events = append(events, chromeMeta{
		Name: "process_name", Ph: "M", Pid: chromePid, Tid: 0,
		Args: chromeMetaArgs{Name: "predrm simulation"},
	})
	for _, res := range tl.Used {
		name := fmt.Sprintf("R%d", res)
		if res < len(names) && names[res] != "" {
			name = names[res]
		}
		// tid 0 is reserved for the process metadata row.
		events = append(events, chromeMeta{
			Name: "thread_name", Ph: "M", Pid: chromePid, Tid: res + 1,
			Args: chromeMetaArgs{Name: name},
		})
	}
	for _, iv := range tl.Intervals {
		if iv.End <= iv.Start {
			continue
		}
		s := chromeSlice{
			Ph: "X", Pid: chromePid, Tid: iv.Resource + 1,
			Ts: usec(iv.Start), Dur: usec(iv.End - iv.Start),
			Args: chromeSliceArgs{Job: iv.Job, Task: iv.Task},
		}
		switch {
		case iv.Kind == IntervalReserved:
			s.Name, s.Cat = "reservation", "reserved"
		default:
			s.Name, s.Cat = fmt.Sprintf("job %d", iv.Job), "exec"
		}
		events = append(events, s)
	}
	for _, p := range tl.InFlight {
		events = append(events, chromeCounter{
			Name: "in_flight", Ph: "C", Pid: chromePid,
			Ts: usec(p.T), Args: chromeCounterArgs{Jobs: p.V},
		})
	}

	// One event per line keeps the export diffable and golden-testable
	// while remaining a single valid JSON document.
	if _, err := io.WriteString(w, "{\"displayTimeUnit\":\"ms\",\n\"traceEvents\":[\n"); err != nil {
		return err
	}
	for i, e := range events {
		line, err := json.Marshal(e)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(line, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]}\n")
	return err
}
