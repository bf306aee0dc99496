package core

import (
	"errors"
	"strings"
	"testing"

	"predrm/internal/sched"
	"predrm/internal/telemetry"
)

// okStub returns a fixed feasible decision.
type okStub struct{ calls int }

func (s *okStub) Solve(p *sched.Problem) Decision {
	s.calls++
	mapping := make([]int, len(p.Jobs))
	return Decision{Mapping: mapping, Feasible: true, Energy: 1}
}

// errStub always fails through SolveChecked.
type errStub struct{ calls int }

func (s *errStub) Solve(p *sched.Problem) Decision {
	d, _ := s.SolveChecked(p)
	return d
}

func (s *errStub) SolveChecked(p *sched.Problem) (Decision, error) {
	s.calls++
	return Decision{}, errors.New("stub failure")
}

// panicStub panics on every solve.
type panicStub struct{}

func (panicStub) Solve(p *sched.Problem) Decision { panic("stub panic") }

// budgetStub is a BudgetAware solver with scripted outcomes.
type budgetStub struct {
	feasible  bool
	exhausted bool
	nodes     int
	applied   Budget
}

func (s *budgetStub) Solve(p *sched.Problem) Decision {
	mapping := make([]int, len(p.Jobs))
	if !s.feasible {
		for i := range mapping {
			mapping[i] = sched.Unmapped
		}
	}
	return Decision{Mapping: mapping, Feasible: s.feasible}
}

func (s *budgetStub) ApplyBudget(b Budget) { s.applied = b }
func (s *budgetStub) BudgetUsed() BudgetUse {
	return BudgetUse{Nodes: s.nodes, Exhausted: s.exhausted}
}

func testProblem() *sched.Problem {
	return motivationalProblem(false)
}

func TestRejectOnly(t *testing.T) {
	p := testProblem()
	d := RejectOnly{}.Solve(p)
	if d.Feasible {
		t.Fatal("reject-only must be infeasible")
	}
	for i, m := range d.Mapping {
		if m != sched.Unmapped {
			t.Fatalf("job %d mapped to %d", i, m)
		}
	}
}

func TestBudgetedSolverFallsThroughOnError(t *testing.T) {
	primary := &errStub{}
	backup := &okStub{}
	b := &BudgetedSolver{Stages: []Stage{
		{Name: "primary", Solver: primary},
		{Name: "backup", Solver: backup},
	}}
	reg := telemetry.NewRegistry()
	b.AttachMetrics(reg)

	d := b.Solve(testProblem())
	if !d.Feasible {
		t.Fatal("backup stage should have answered")
	}
	if primary.calls != 1 || backup.calls != 1 {
		t.Fatalf("calls = %d/%d, want 1/1", primary.calls, backup.calls)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["resilience.fallbacks"]; got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
	if got := snap.Counters["resilience.stage_errors"]; got != 1 {
		t.Fatalf("stage_errors = %d, want 1", got)
	}
	if got := snap.Counters["resilience.reject_only"]; got != 0 {
		t.Fatalf("reject_only = %d, want 0", got)
	}
}

func TestBudgetedSolverPanicAbsorbed(t *testing.T) {
	b := &BudgetedSolver{Stages: []Stage{
		{Name: "boom", Solver: panicStub{}},
		{Name: "backup", Solver: &okStub{}},
	}}
	d := b.Solve(testProblem())
	if !d.Feasible {
		t.Fatal("panic must fall through, not propagate")
	}
}

func TestBudgetedSolverRejectOnlyTerminal(t *testing.T) {
	b := &BudgetedSolver{Stages: []Stage{{Name: "primary", Solver: &errStub{}}}}
	reg := telemetry.NewRegistry()
	b.AttachMetrics(reg)
	var sink strings.Builder
	b.Tracer = telemetry.NewTracer(telemetry.TracerOptions{})

	d := b.Solve(testProblem())
	if d.Feasible {
		t.Fatal("exhausted chain must reject")
	}
	for _, m := range d.Mapping {
		if m != sched.Unmapped {
			t.Fatalf("reject-only decision maps a job: %v", d.Mapping)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["resilience.reject_only"]; got != 1 {
		t.Fatalf("reject_only = %d, want 1", got)
	}
	events := b.Tracer.Events()
	var sawTerminal bool
	for _, e := range events {
		if e.Type == telemetry.EvSolverFallback && e.Reason == "reject_only" {
			sawTerminal = true
			if int(e.Value) != len(b.Stages) {
				t.Fatalf("terminal fallback Value = %v, want %d", e.Value, len(b.Stages))
			}
		}
	}
	if !sawTerminal {
		t.Fatalf("no reject_only fallback event in %v%s", events, sink.String())
	}
}

func TestBudgetedSolverBudgetFallthrough(t *testing.T) {
	// Budget exhausted with no incumbent: fall through to the next stage.
	primary := &budgetStub{feasible: false, exhausted: true, nodes: 7}
	backup := &okStub{}
	b := &BudgetedSolver{
		Stages: []Stage{{Name: "primary", Solver: primary}, {Name: "backup", Solver: backup}},
		Budget: Budget{Nodes: 7},
	}
	reg := telemetry.NewRegistry()
	b.AttachMetrics(reg)

	d := b.Solve(testProblem())
	if !d.Feasible {
		t.Fatal("backup should have answered")
	}
	if primary.applied != b.Budget {
		t.Fatalf("budget not applied: %+v", primary.applied)
	}
	snap := reg.Snapshot()
	if got := snap.Counters["resilience.budget_exhausted"]; got != 1 {
		t.Fatalf("budget_exhausted = %d, want 1", got)
	}
	if got := snap.Counters["resilience.fallbacks"]; got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
}

func TestBudgetedSolverExhaustedIncumbentUsed(t *testing.T) {
	// Budget exhausted but the anytime incumbent is feasible: use it and
	// only account the exhaustion.
	primary := &budgetStub{feasible: true, exhausted: true, nodes: 7}
	backup := &okStub{}
	b := &BudgetedSolver{
		Stages: []Stage{{Name: "primary", Solver: primary}, {Name: "backup", Solver: backup}},
		Budget: Budget{Nodes: 7},
	}
	reg := telemetry.NewRegistry()
	b.AttachMetrics(reg)

	d := b.Solve(testProblem())
	if !d.Feasible {
		t.Fatal("incumbent should be used")
	}
	if backup.calls != 0 {
		t.Fatal("must not fall through with a feasible incumbent")
	}
	snap := reg.Snapshot()
	if got := snap.Counters["resilience.budget_exhausted"]; got != 1 {
		t.Fatalf("budget_exhausted = %d, want 1", got)
	}
	if got := snap.Counters["resilience.fallbacks"]; got != 0 {
		t.Fatalf("fallbacks = %d, want 0", got)
	}
}

func TestBudgetedSolverEmptyChain(t *testing.T) {
	b := &BudgetedSolver{}
	d := b.Solve(testProblem())
	if d.Feasible {
		t.Fatal("empty chain must reject")
	}
}

// TestAdmitCheckedPropagatesError: the checked protocol (AdmitProv)
// returns a FallibleSolver's error instead of deciding.
func TestAdmitCheckedPropagatesError(t *testing.T) {
	_, admitted, err := AdmitProv(&errStub{}, testProblem(), nil, nil)
	if err == nil {
		t.Fatal("error not propagated")
	}
	if admitted {
		t.Fatal("failed solve must not admit")
	}
}

func TestAdmitAbsorbsError(t *testing.T) {
	d, admitted := Admit(&errStub{}, testProblem())
	if admitted || d.Feasible {
		t.Fatal("Admit must degrade a solver failure to rejection")
	}
}
