package core

import (
	"strings"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

// TestProvenanceHeuristicCandidates checks the heuristic's recording on
// the motivational instance: an admitted job leaves a chosen verdict, a
// pick step, and not_tried verdicts for the losing candidates.
func TestProvenanceHeuristicCandidates(t *testing.T) {
	rec := telemetry.NewProvRecorder()
	h := &Heuristic{}
	h.AttachProvenance(rec)
	d := h.Solve(motivationalProblem(false))
	if !d.Feasible {
		t.Fatal("motivational instance must be feasible")
	}
	p := rec.Snapshot()
	if len(p.Picks) != 1 || p.Picks[0].Job != 0 || p.Picks[0].Res != 2 {
		t.Fatalf("picks = %+v, want job 0 on GPU (2)", p.Picks)
	}
	chosen, notTried := 0, 0
	for _, c := range p.Candidates {
		switch c.Verdict {
		case telemetry.VerdictChosen:
			chosen++
			if c.Res != 2 || c.Slack <= 0 {
				t.Fatalf("chosen verdict = %+v, want GPU with positive slack", c)
			}
		case telemetry.VerdictNotTried:
			notTried++
		default:
			t.Fatalf("unexpected verdict %+v", c)
		}
	}
	if chosen != 1 || notTried < 1 {
		t.Fatalf("verdicts: %d chosen, %d not_tried (want 1, >=1): %+v", chosen, notTried, p.Candidates)
	}
}

// TestProvenanceHeuristicRejection checks that rejections record the full
// resource picture for the failing job, for both ways Algorithm 1 can
// fail: a capacity-empty feasible set (line 22), and EDF probes breaking
// on every candidate (lines 31-32).
func TestProvenanceHeuristicRejection(t *testing.T) {
	ts := task.Motivational()

	// Capacity exhaustion: both tasks only fit the GPU within their
	// deadlines and the GPU cannot hold both, so the second job's feasible
	// set empties before any EDF probe (see TestHeuristicInfeasibleOverload).
	j1 := sched.NewJob(0, ts.Type(0), 0, 5.5)
	j2 := sched.NewJob(1, ts.Type(1), 0, 3.5)
	p := &sched.Problem{
		Platform: platform.Motivational(),
		Time:     0,
		Jobs:     []*sched.Job{j1, j2},
	}
	rec := telemetry.NewProvRecorder()
	h := &Heuristic{}
	h.AttachProvenance(rec)
	if d := h.Solve(p); d.Feasible {
		t.Fatalf("overloaded GPU accepted: %v", d.Mapping)
	}
	excluded := 0
	for _, c := range rec.Snapshot().Candidates {
		if c.Verdict == telemetry.VerdictNoCapacity || c.Verdict == telemetry.VerdictNotExecutable {
			excluded++
			if c.Job != 1 {
				t.Fatalf("excluded verdict for job %d, want failing job 1: %+v", c.Job, c)
			}
		}
	}
	if excluded == 0 {
		t.Fatal("capacity rejection recorded no excluded resources")
	}

	// Deadline breach: job 1's deadline (2.5) is shorter than its fastest
	// execution anywhere, so every resource stays in the feasible set by
	// capacity but fails the EDF probe.
	j3 := sched.NewJob(0, ts.Type(0), 0, 8)
	j4 := sched.NewJob(1, ts.Type(1), 0, 2.5)
	p = &sched.Problem{
		Platform: platform.Motivational(),
		Time:     0,
		Jobs:     []*sched.Job{j3, j4},
	}
	rec.Reset()
	if d := h.Solve(p); d.Feasible {
		t.Fatalf("unmeetable deadline accepted: %v", d.Mapping)
	}
	edfInfeasible := 0
	for _, c := range rec.Snapshot().Candidates {
		if c.Verdict != telemetry.VerdictEDFInfeasible {
			continue
		}
		edfInfeasible++
		if c.Job != 1 || c.Slack >= 0 || c.Deadline != 2.5 {
			t.Fatalf("edf_infeasible verdict carries no breach: %+v", c)
		}
	}
	if edfInfeasible == 0 {
		t.Fatal("deadline rejection recorded no failed EDF probe")
	}
}

// TestProvenanceStageHops checks the chain recording: each stage attempt
// leaves a hop with its outcome (error text and panic distinguished), and
// a chain that bottoms out leaves a terminal reject_only hop.
func TestProvenanceStageHops(t *testing.T) {
	rec := telemetry.NewProvRecorder()
	b := &BudgetedSolver{Stages: []Stage{
		{Name: "flaky", Solver: &errStub{}},
		{Name: "crashy", Solver: panicStub{}},
		{Name: "safe", Solver: &okStub{}},
	}}
	b.AttachProvenance(rec)
	if d := b.Solve(testProblem()); !d.Feasible {
		t.Fatal("chain should reach the feasible stage")
	}
	hops := rec.Snapshot().Stages
	if len(hops) != 3 {
		t.Fatalf("hops = %+v, want 3", hops)
	}
	if hops[0].Outcome != telemetry.StageError || !strings.Contains(hops[0].Err, "stub failure") {
		t.Fatalf("hop 0 = %+v, want error with stub failure text", hops[0])
	}
	if hops[1].Outcome != telemetry.StagePanic || !strings.Contains(hops[1].Err, "stub panic") {
		t.Fatalf("hop 1 = %+v, want recovered panic", hops[1])
	}
	if hops[2].Outcome != telemetry.StageServed || hops[2].Name != "safe" {
		t.Fatalf("hop 2 = %+v, want served by safe", hops[2])
	}

	rec.Reset()
	bottom := &BudgetedSolver{Stages: []Stage{{Name: "flaky", Solver: &errStub{}}}}
	bottom.AttachProvenance(rec)
	if d := bottom.Solve(testProblem()); d.Feasible {
		t.Fatal("single failing stage must reject")
	}
	hops = rec.Snapshot().Stages
	if len(hops) != 2 || hops[1].Outcome != telemetry.StageRejectOnly || hops[1].Stage != 1 {
		t.Fatalf("bottom-out hops = %+v, want terminal reject_only at stage 1", hops)
	}
}

// TestProvenanceAdmitAttempts checks AdmitProv's protocol recording: one
// attempt per solve, with the predicted-job count and outcome of each.
func TestProvenanceAdmitAttempts(t *testing.T) {
	ts := task.Motivational()
	j1 := sched.NewJob(0, ts.Type(0), 0, 8)
	jp := sched.NewJob(1, ts.Type(1), 1, 5)
	jp.Predicted = true
	p := &sched.Problem{
		Platform: platform.Motivational(),
		Time:     0,
		Jobs:     []*sched.Job{j1, jp},
	}
	// Scripted solver: infeasible while the prediction is present, feasible
	// once dropped — forcing exactly one protocol fallback.
	s := &predRejectStub{}
	rec := telemetry.NewProvRecorder()
	d, admitted, err := AdmitProv(s, p, rec, nil)
	if err != nil || !admitted || !d.Feasible {
		t.Fatalf("admit = (%v, %v, %v)", d, admitted, err)
	}
	a := rec.Snapshot().Attempts
	if len(a) != 2 {
		t.Fatalf("attempts = %+v, want 2", a)
	}
	if a[0].Jobs != 2 || a[0].Predicted != 1 || a[0].Feasible {
		t.Fatalf("attempt 0 = %+v, want infeasible 2-job solve with 1 prediction", a[0])
	}
	if a[1].Jobs != 1 || a[1].Predicted != 0 || !a[1].Feasible {
		t.Fatalf("attempt 1 = %+v, want feasible plain solve", a[1])
	}
}

// predRejectStub rejects any problem containing a predicted job.
type predRejectStub struct{}

func (predRejectStub) Solve(p *sched.Problem) Decision {
	mapping := make([]int, len(p.Jobs))
	for _, j := range p.Jobs {
		if j.Predicted {
			for i := range mapping {
				mapping[i] = sched.Unmapped
			}
			return Decision{Mapping: mapping, Feasible: false}
		}
	}
	return Decision{Mapping: mapping, Feasible: true, Energy: 1}
}
