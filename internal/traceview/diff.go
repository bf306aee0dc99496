package traceview

import (
	"fmt"
	"io"
	"sort"

	"predrm/internal/metrics"
)

// Summary condenses a timeline into the headline numbers the paper
// compares across runs (rejection rate, energy, solver overhead,
// utilization). Two summaries of the same workload under different
// configurations — predictive vs. baseline — are the inputs of WriteDiff.
type Summary struct {
	Requests, Admitted, Rejected int
	// RejectionPct is the rejected share of decided requests in percent.
	RejectionPct float64
	// Energy attribution; TotalEnergy = ExecEnergy + MigrationEnergy.
	ExecEnergy, MigrationEnergy, TotalEnergy float64
	Migrations                               int
	ResvPlanned, ResvHonoured                int
	DeadlineMisses                           int
	// MakeSpan is the last adaptive completion time.
	MakeSpan float64
	// MeanUtilization averages the busy fractions of the resources that
	// carry an event.
	MeanUtilization float64
	// Solver latency percentiles in seconds.
	SolverP50, SolverP95, SolverMax float64
	InFlightPeak                    int
	// AdmitReasons and RejectReasons histogram the enumerated decision
	// reasons (telemetry reason vocabulary) over the decided requests.
	AdmitReasons, RejectReasons map[string]int
}

// Summarize condenses the timeline.
func (tl *Timeline) Summarize() Summary {
	s := Summary{
		ExecEnergy:      tl.ExecEnergy,
		MigrationEnergy: tl.MigrationEnergy,
		TotalEnergy:     tl.ExecEnergy + tl.MigrationEnergy,
		ResvPlanned:     tl.ResvPlanned,
		ResvHonoured:    tl.ResvHonoured,
		InFlightPeak:    tl.InFlightPeak(),
	}
	s.AdmitReasons = make(map[string]int)
	s.RejectReasons = make(map[string]int)
	for _, o := range tl.Requests {
		if o.HasArrival {
			s.Requests++
		}
		if o.Admitted {
			s.Admitted++
			if o.AdmitReason != "" {
				s.AdmitReasons[o.AdmitReason]++
			}
		}
		if o.Rejected {
			s.Rejected++
			if o.RejectReason != "" {
				s.RejectReasons[o.RejectReason]++
			}
		}
		s.Migrations += o.Migrations
		if o.Finished && o.HasArrival {
			if o.Slack() < -timeEps {
				s.DeadlineMisses++
			}
			if o.FinishTime > s.MakeSpan {
				s.MakeSpan = o.FinishTime
			}
		}
	}
	if decided := s.Admitted + s.Rejected; decided > 0 {
		s.RejectionPct = 100 * float64(s.Rejected) / float64(decided)
	}
	if util := tl.Utilization(); len(util) > 0 {
		sum := 0.0
		for _, u := range util {
			sum += u
		}
		s.MeanUtilization = sum / float64(len(util))
	}
	if wall := tl.SolverWallSec; len(wall) > 0 {
		s.SolverP50, _ = metrics.Percentile(wall, 50)
		s.SolverP95, _ = metrics.Percentile(wall, 95)
		s.SolverMax, _ = metrics.Percentile(wall, 100)
	}
	return s
}

// WriteDiff prints the two summaries side by side with deltas (b − a):
// the record → analyze → diff workflow for comparing a predictive run
// against its baseline on the same workload.
func WriteDiff(w io.Writer, labelA string, a Summary, labelB string, b Summary) error {
	type rowSpec struct {
		name    string
		a, b    float64
		unit    string
		integer bool
	}
	rows := []rowSpec{
		{"requests", float64(a.Requests), float64(b.Requests), "", true},
		{"admitted", float64(a.Admitted), float64(b.Admitted), "", true},
		{"rejected", float64(a.Rejected), float64(b.Rejected), "", true},
		{"rejection rate", a.RejectionPct, b.RejectionPct, "%", false},
		{"total energy", a.TotalEnergy, b.TotalEnergy, " J", false},
		{"exec energy", a.ExecEnergy, b.ExecEnergy, " J", false},
		{"migration energy", a.MigrationEnergy, b.MigrationEnergy, " J", false},
		{"migrations", float64(a.Migrations), float64(b.Migrations), "", true},
		{"resv planned", float64(a.ResvPlanned), float64(b.ResvPlanned), "", true},
		{"resv honoured", float64(a.ResvHonoured), float64(b.ResvHonoured), "", true},
		{"deadline misses", float64(a.DeadlineMisses), float64(b.DeadlineMisses), "", true},
		{"makespan", a.MakeSpan, b.MakeSpan, "", false},
		{"mean utilization", 100 * a.MeanUtilization, 100 * b.MeanUtilization, "%", false},
		{"solver p50", a.SolverP50 * 1e6, b.SolverP50 * 1e6, " µs", false},
		{"solver p95", a.SolverP95 * 1e6, b.SolverP95 * 1e6, " µs", false},
		{"solver max", a.SolverMax * 1e6, b.SolverMax * 1e6, " µs", false},
		{"in-flight peak", float64(a.InFlightPeak), float64(b.InFlightPeak), "", true},
	}
	// Reason-level comparison: one row per enumerated decision reason seen
	// in either trace, in sorted order for deterministic output.
	for _, reason := range unionReasons(a.AdmitReasons, b.AdmitReasons) {
		rows = append(rows, rowSpec{"admit: " + reason,
			float64(a.AdmitReasons[reason]), float64(b.AdmitReasons[reason]), "", true})
	}
	for _, reason := range unionReasons(a.RejectReasons, b.RejectReasons) {
		rows = append(rows, rowSpec{"reject: " + reason,
			float64(a.RejectReasons[reason]), float64(b.RejectReasons[reason]), "", true})
	}
	if _, err := fmt.Fprintf(w, "%-26s %16s %16s %16s\n", "metric", labelA, labelB, "delta (b-a)"); err != nil {
		return err
	}
	fmtv := func(v float64, r rowSpec) string {
		if r.integer {
			return fmt.Sprintf("%.0f%s", v, r.unit)
		}
		return fmt.Sprintf("%.3f%s", v, r.unit)
	}
	for _, r := range rows {
		delta := r.b - r.a
		sign := ""
		if delta > 0 {
			sign = "+"
		}
		if _, err := fmt.Fprintf(w, "%-26s %16s %16s %15s\n",
			r.name, fmtv(r.a, r), fmtv(r.b, r), sign+fmtv(delta, r)); err != nil {
			return err
		}
	}
	return nil
}

// unionReasons returns the sorted union of the reason keys of a and b.
func unionReasons(a, b map[string]int) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for r := range a {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	for r := range b {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	sort.Strings(out)
	return out
}
