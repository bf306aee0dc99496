package traceview

import (
	"fmt"
	"io"
	"sort"

	"predrm/internal/telemetry"
)

// Explanation is the reconstructed decision narrative of one request: the
// admission outcome from the admit/reject events plus, when the trace was
// recorded with provenance on, the full causal record of how the decision
// was reached.
type Explanation struct {
	// Outcome is the request's folded fate from the timeline.
	Outcome *RequestOutcome
	// Prov is the decision-provenance record, nil when the trace carries
	// no EvDecision for the request (provenance was off).
	Prov *telemetry.Provenance
}

// Explain reconstructs the decision narrative of request req from a built
// timeline. It fails when the trace holds no admission decision for the
// request — an id outside the trace, or a stream whose decision events
// were lost to ring drops.
func Explain(tl *Timeline, req int) (*Explanation, error) {
	o, ok := tl.Requests[req]
	if !ok {
		return nil, fmt.Errorf("traceview: request %d does not appear in the trace", req)
	}
	if !o.Admitted && !o.Rejected {
		return nil, fmt.Errorf("traceview: request %d has no admission decision in the trace", req)
	}
	x := &Explanation{Outcome: o}
	if o.Decision != nil {
		x.Prov = o.Decision.Prov
	}
	return x, nil
}

// WriteExplanation renders the narrative as a text report: outcome,
// protocol attempts, solver-chain hops, per-candidate feasibility
// verdicts, regret placement order, branch-and-bound effort, and remapping
// deltas. Sections absent from the record are omitted.
func WriteExplanation(w io.Writer, x *Explanation) error {
	o := x.Outcome
	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	switch {
	case o.Rejected:
		p("request %d (task %d): REJECTED — %s\n", o.Req, o.Task, o.RejectReason)
	case o.Admitted:
		p("request %d (task %d): ADMITTED — %s onto resource %d\n",
			o.Req, o.Task, o.AdmitReason, o.AdmitRes)
	}
	if o.HasArrival {
		p("  arrival t=%.3f, absolute deadline t=%.3f\n", o.Arrival, o.Deadline)
	}
	if o.Admitted {
		p("  decided t=%.3f\n", o.AdmitTime)
	}

	pr := x.Prov
	if pr == nil {
		p("\nno provenance record in the trace (record with provenance enabled\n")
		p("— engine.Config.Provenance or rmsim -provenance — for the full causal chain)\n")
		return err
	}
	if d := o.Decision; d != nil && o.Admitted && d.Value > 0 {
		p("  decision energy %.3f\n", d.Value)
	}

	if len(pr.Attempts) > 0 {
		p("\nadmission protocol (solve, then drop predictions one at a time):\n")
		for i, a := range pr.Attempts {
			verdict := "infeasible"
			if a.Feasible {
				verdict = fmt.Sprintf("feasible, energy %.3f", a.Energy)
			}
			p("  attempt %d: %d job(s), %d predicted -> %s\n", i, a.Jobs, a.Predicted, verdict)
		}
	}

	if len(pr.Stages) > 0 {
		p("\nsolver chain:\n")
		for _, h := range pr.Stages {
			p("  [attempt %d] stage %d", h.Attempt, h.Stage)
			if h.Name != "" {
				p(" %q", h.Name)
			}
			p(": %s", h.Outcome)
			if h.Nodes > 0 {
				p(", %d node(s)", h.Nodes)
			}
			if h.WallNs > 0 {
				p(", %.1fµs", float64(h.WallNs)/1e3)
			}
			if h.Err != "" {
				p(" (%s)", h.Err)
			}
			p("\n")
		}
	}

	if len(pr.Candidates) > 0 {
		p("\ncandidate feasibility verdicts:\n")
		for _, c := range pr.Candidates {
			p("  [attempt %d] job %d on res %d: %s", c.Attempt, c.Job, c.Res, c.Verdict)
			switch c.Verdict {
			case telemetry.VerdictChosen:
				p(" (des %.3f, slack %.3f)", c.Des, c.Slack)
			case telemetry.VerdictEDFInfeasible:
				path := "sorted scan"
				if c.EDFPath {
					path = "EDF simulation"
				}
				p(" (des %.3f, slack %.3f, breaks deadline t=%.3f, %s)",
					c.Des, c.Slack, c.Deadline, path)
			case telemetry.VerdictNoCapacity, telemetry.VerdictNotTried:
				p(" (des %.3f)", c.Des)
			}
			p("\n")
		}
	}

	if len(pr.Picks) > 0 {
		p("\nplacement order (max regret first):\n")
		for _, s := range pr.Picks {
			p("  [attempt %d] job %d -> res %d", s.Attempt, s.Job, s.Res)
			if s.Forced {
				p(" (forced: single feasible resource)")
			} else {
				p(" (regret %.3f)", s.Regret)
			}
			p("\n")
		}
	}

	if len(pr.BB) > 0 {
		p("\nbranch & bound:\n")
		for _, b := range pr.BB {
			p("  [attempt %d] %d node(s)", b.Attempt, b.Nodes)
			if b.Truncated {
				p(" (budget truncated)")
			}
			if b.CacheHits+b.CacheMisses > 0 {
				p(", cache %d hit / %d miss", b.CacheHits, b.CacheMisses)
			}
			if b.Incumbent > 0 {
				p(", incumbent %.3f", b.Incumbent)
			}
			p("\n")
		}
	}

	if len(pr.Remaps) > 0 {
		p("\nremapped standing jobs (vs previous activation):\n")
		for _, m := range pr.Remaps {
			charge := "uncharged"
			if m.Charged {
				charge = "charged migration"
			}
			p("  job %d: res %d -> res %d (%s)\n", m.Job, m.From, m.To, charge)
		}
	}
	return err
}

// RejectedRequests returns the ids of every rejected request, sorted.
func (tl *Timeline) RejectedRequests() []int {
	var out []int
	for req, o := range tl.Requests {
		if o.Rejected {
			out = append(out, req)
		}
	}
	sort.Ints(out)
	return out
}
