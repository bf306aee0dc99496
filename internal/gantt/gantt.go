// Package gantt renders executed or planned schedules as text charts and
// machine-readable exports. It gives the simulator's RecordExecution
// output (and the paper's Fig 1-style scenarios) a human-readable form:
//
//	CPU1 |  0000000...
//	GPU1 |.11122......
//
// Each column is one time quantum; digits identify jobs (modulo 10 with a
// legend), '.' is idle.
package gantt

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"predrm/internal/engine"
	"predrm/internal/platform"
)

// Chart is a renderable schedule.
type Chart struct {
	plat *platform.Platform
	segs []engine.ExecSegment
	from float64
	to   float64
}

// New builds a chart over segments. The time range is inferred from the
// segments; it errors on an empty or malformed input.
func New(plat *platform.Platform, segs []engine.ExecSegment) (*Chart, error) {
	if plat == nil {
		return nil, errors.New("gantt: nil platform")
	}
	if len(segs) == 0 {
		return nil, errors.New("gantt: no segments")
	}
	c := &Chart{plat: plat, segs: append([]engine.ExecSegment(nil), segs...)}
	c.from, c.to = segs[0].Start, segs[0].End
	for _, s := range segs {
		if s.End < s.Start {
			return nil, fmt.Errorf("gantt: segment ends before it starts: %+v", s)
		}
		if s.Resource < 0 || s.Resource >= plat.Len() {
			return nil, fmt.Errorf("gantt: unknown resource %d", s.Resource)
		}
		if s.Start < c.from {
			c.from = s.Start
		}
		if s.End > c.to {
			c.to = s.End
		}
	}
	sort.SliceStable(c.segs, func(a, b int) bool {
		if c.segs[a].Resource != c.segs[b].Resource {
			return c.segs[a].Resource < c.segs[b].Resource
		}
		return c.segs[a].Start < c.segs[b].Start
	})
	return c, nil
}

// Clip returns the segments restricted to the window [from, to): segments
// outside it are dropped, segments straddling a boundary are trimmed. The
// input is not modified. Renderers use it to chart an opening window of a
// long schedule.
func Clip(segs []engine.ExecSegment, from, to float64) []engine.ExecSegment {
	var out []engine.ExecSegment
	for _, s := range segs {
		if s.End <= from || s.Start >= to {
			continue
		}
		if s.Start < from {
			s.Start = from
		}
		if s.End > to {
			s.End = to
		}
		out = append(out, s)
	}
	return out
}

// Span returns the chart's time range.
func (c *Chart) Span() (from, to float64) { return c.from, c.to }

// Render writes an ASCII chart with the given number of columns.
func (c *Chart) Render(w io.Writer, columns int) error {
	if columns <= 0 {
		columns = 80
	}
	span := c.to - c.from
	if span <= 0 {
		span = 1
	}
	quantum := span / float64(columns)

	rows := make([][]byte, c.plat.Len())
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", columns))
	}
	jobs := map[int]bool{}
	for _, s := range c.segs {
		jobs[s.JobID] = true
		lo := int((s.Start - c.from) / quantum)
		hi := int((s.End - c.from) / quantum)
		if hi >= columns {
			hi = columns - 1
		}
		for col := lo; col <= hi; col++ {
			rows[s.Resource][col] = glyph(s.JobID)
		}
	}

	if _, err := fmt.Fprintf(w, "t=[%.2f, %.2f], quantum %.3f\n", c.from, c.to, quantum); err != nil {
		return err
	}
	width := 0
	for i := 0; i < c.plat.Len(); i++ {
		if n := len(c.plat.Resource(i).Name); n > width {
			width = n
		}
	}
	for i := 0; i < c.plat.Len(); i++ {
		name := c.plat.Resource(i).Name
		if _, err := fmt.Fprintf(w, "%-*s |%s|\n", width, name, rows[i]); err != nil {
			return err
		}
	}
	ids := make([]int, 0, len(jobs))
	for id := range jobs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	legend := make([]string, 0, len(ids))
	for _, id := range ids {
		legend = append(legend, fmt.Sprintf("%c=job%d", glyph(id), id))
	}
	_, err := fmt.Fprintf(w, "legend: %s\n", strings.Join(legend, " "))
	return err
}

// glyph maps a job ID to its chart character: digits for trace requests,
// letters for the negative IDs a foreign trace may carry.
func glyph(id int) byte {
	if id >= 0 {
		return byte('0' + id%10)
	}
	return byte('a' + (-id-1)%26)
}

// Utilization returns each resource's busy fraction over the chart span.
func (c *Chart) Utilization() []float64 {
	busy := make([]float64, c.plat.Len())
	for _, s := range c.segs {
		busy[s.Resource] += s.End - s.Start
	}
	span := c.to - c.from
	if span <= 0 {
		return busy
	}
	for i := range busy {
		busy[i] /= span
	}
	return busy
}
