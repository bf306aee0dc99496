package traceview

import (
	"fmt"
	"io"

	"predrm/internal/gantt"
	"predrm/internal/metrics"
	"predrm/internal/platform"
)

// WriteReport renders a human-readable analysis of the timeline: admission
// and energy totals, reservation behaviour, deadline-slack distribution,
// solver-latency percentiles, the utilization of each resource that
// carries an event, and (when the platform is known and execution events
// are present) the executed schedule as a gantt chart. ganttCols <= 0
// disables the chart.
func WriteReport(w io.Writer, tl *Timeline, plat *platform.Platform, ganttCols int) error {
	sum := tl.Summarize()
	p := func(format string, args ...any) {
		fmt.Fprintf(w, format+"\n", args...)
	}
	p("trace span:        t=[%.3f, %.3f] (%d resources referenced)", tl.Start, tl.End, len(tl.Used))
	p("requests:          %d arrivals, %d admitted, %d rejected (%.2f%%)",
		sum.Requests, sum.Admitted, sum.Rejected, sum.RejectionPct)
	p("energy:            %.2f J total = %.2f exec + %.2f migration (%d migrations)",
		sum.TotalEnergy, sum.ExecEnergy, sum.MigrationEnergy, sum.Migrations)
	p("reservations:      %d planned, %d honoured", sum.ResvPlanned, sum.ResvHonoured)
	p("deadline misses:   %d", sum.DeadlineMisses)
	if slacks := tl.Slacks(); len(slacks) > 0 {
		s := metrics.Summarise(slacks)
		p10, _ := metrics.Percentile(slacks, 10)
		p50, _ := metrics.Percentile(slacks, 50)
		p("deadline slack:    min %.3f, p10 %.3f, p50 %.3f, max %.3f (%d finished)",
			s.Min, p10, p50, s.Max, s.N)
	}
	if len(tl.SolverWallSec) > 0 {
		p("solver latency:    p50 %.1f µs, p95 %.1f µs, max %.1f µs (%d activations)",
			sum.SolverP50*1e6, sum.SolverP95*1e6, sum.SolverMax*1e6, len(tl.SolverWallSec))
	}
	if n := len(tl.SolverJobs); n > 0 {
		js := metrics.Summarise(tl.SolverJobs)
		p("problem size:      mean %.1f jobs, max %.0f", js.Mean, js.Max)
	}
	p("in-flight peak:    %d jobs", sum.InFlightPeak)

	util := tl.Utilization()
	for k, res := range tl.Used {
		p("utilization %-6s %5.1f%%", resourceName(plat, res)+":", 100*util[k])
	}
	if tl.Dropped > 0 {
		p("ring drops:        %d events lost (derived numbers are lower bounds)", tl.Dropped)
	}
	for _, d := range tl.Diags {
		p("diagnostic:        %s", d)
	}

	if ganttCols > 0 && plat != nil && plat.Len() >= tl.Resources {
		if segs := tl.ExecSegments(); len(segs) > 0 {
			p("")
			p("executed schedule (reconstructed from lifecycle events):")
			chart, err := gantt.New(plat, segs)
			if err != nil {
				return err
			}
			if err := chart.Render(w, ganttCols); err != nil {
				return err
			}
		}
	}
	return nil
}

// resourceName labels resource res from the platform when it covers it,
// falling back to a generic id for traces from unknown hardware.
func resourceName(plat *platform.Platform, res int) string {
	if plat != nil && res < plat.Len() {
		return plat.Resource(res).Name
	}
	return fmt.Sprintf("R%d", res)
}
