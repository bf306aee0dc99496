package sched

import (
	"strings"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/task"
)

func motivType(t *testing.T, id int) *task.Type {
	t.Helper()
	return task.Motivational().Type(id)
}

func TestNewJob(t *testing.T) {
	ty := motivType(t, 0)
	j := NewJob(3, ty, 10, 8)
	if j.AbsDeadline != 18 {
		t.Fatalf("AbsDeadline = %v, want 18", j.AbsDeadline)
	}
	if j.Resource != Unmapped || j.Started || j.Frac != 1 {
		t.Fatalf("fresh job state wrong: %+v", j)
	}
	if got := j.TimeLeft(12); got != 6 {
		t.Fatalf("TimeLeft = %v, want 6", got)
	}
}

func TestRemScalesWithProgress(t *testing.T) {
	ty := motivType(t, 0) // WCET CPU1=8, CPU2=12, GPU=5
	j := NewJob(0, ty, 0, 8)
	j.Frac = 0.5
	if got := j.Rem(0); got != 4 {
		t.Fatalf("Rem(CPU1) = %v, want 4", got)
	}
	// The paper's migration scaling: cp_{j,k} = c_{j,k} x (cp_{j,i}/c_{j,i}).
	if got := j.Rem(1); got != 6 {
		t.Fatalf("Rem(CPU2) = %v, want 6", got)
	}
	if got := j.Rem(2); got != 2.5 {
		t.Fatalf("Rem(GPU) = %v, want 2.5", got)
	}
}

func TestRemEnergyScales(t *testing.T) {
	ty := motivType(t, 0) // Energy CPU1=7.3
	j := NewJob(0, ty, 0, 8)
	j.Frac = 0.25
	if got := j.RemEnergy(0); got != 7.3*0.25 {
		t.Fatalf("RemEnergy = %v", got)
	}
}

func TestRemNotExecutable(t *testing.T) {
	ty := &task.Type{ID: 0,
		WCET:   []float64{5, task.NotExecutable},
		Energy: []float64{2, task.NotExecutable}}
	j := NewJob(0, ty, 0, 10)
	if j.Rem(1) != task.NotExecutable || j.RemEnergy(1) != task.NotExecutable {
		t.Fatal("Rem on non-executable resource should be NotExecutable")
	}
	if j.CPM(1, ChargeStartedOnly) != task.NotExecutable {
		t.Fatal("CPM on non-executable resource should be NotExecutable")
	}
	if j.EPM(1, ChargeStartedOnly) != task.NotExecutable {
		t.Fatal("EPM on non-executable resource should be NotExecutable")
	}
}

func TestMigrationChargingPolicies(t *testing.T) {
	ty := &task.Type{ID: 0,
		WCET:      []float64{10, 20},
		Energy:    []float64{4, 8},
		MigTime:   2,
		MigEnergy: 1,
	}
	j := NewJob(0, ty, 0, 100)

	// Unmapped: never charged.
	if j.CPM(0, ChargeAlways) != 10 || j.EPM(0, ChargeAlways) != 4 {
		t.Fatal("unmapped job must not be charged migration")
	}

	// Mapped but not started.
	j.Resource = 0
	if j.CPM(1, ChargeStartedOnly) != 20 {
		t.Fatalf("unstarted remap charged under started-only: %v", j.CPM(1, ChargeStartedOnly))
	}
	if j.CPM(1, ChargeAlways) != 22 {
		t.Fatalf("unstarted remap not charged under always: %v", j.CPM(1, ChargeAlways))
	}

	// Started and moving.
	j.Started = true
	j.Frac = 0.5
	if got := j.CPM(1, ChargeStartedOnly); got != 10+2 {
		t.Fatalf("started migration CPM = %v, want 12", got)
	}
	if got := j.EPM(1, ChargeStartedOnly); got != 4+1 {
		t.Fatalf("started migration EPM = %v, want 5", got)
	}
	// Staying put: no charge.
	if got := j.CPM(0, ChargeStartedOnly); got != 5 {
		t.Fatalf("stay-put CPM = %v, want 5", got)
	}
}

func TestMigDebtCountsAsWork(t *testing.T) {
	ty := &task.Type{ID: 0, WCET: []float64{10}, Energy: []float64{4}}
	j := NewJob(0, ty, 0, 100)
	j.MigDebt = 3
	if got := j.Rem(0); got != 13 {
		t.Fatalf("Rem with debt = %v, want 13", got)
	}
}

func TestPinned(t *testing.T) {
	p := platform.Motivational() // CPU,CPU,GPU
	ty := motivType(t, 0)
	j := NewJob(0, ty, 0, 8)
	if j.Pinned(p) {
		t.Fatal("unmapped job pinned")
	}
	j.Resource = 2 // GPU
	if j.Pinned(p) {
		t.Fatal("unstarted GPU job pinned")
	}
	j.Started = true
	j.ExecRes = 0 // started on a CPU, migrated to the GPU: not yet pinned
	if j.Pinned(p) {
		t.Fatal("migrated-in GPU job pinned before executing there")
	}
	j.ExecRes = 2 // has actually run on the GPU
	if !j.Pinned(p) {
		t.Fatal("GPU occupant not pinned")
	}
	j.Resource = 0 // CPU
	j.ExecRes = 0
	if j.Pinned(p) {
		t.Fatal("started CPU job pinned")
	}
}

func TestDoneAndClone(t *testing.T) {
	ty := motivType(t, 1)
	j := NewJob(0, ty, 0, 5)
	if j.Done() {
		t.Fatal("fresh job done")
	}
	c := j.Clone()
	c.Frac = 0
	if j.Frac == 0 {
		t.Fatal("Clone shares state")
	}
	if !c.Done() {
		t.Fatal("finished clone not done")
	}
	c.MigDebt = 1
	if c.Done() {
		t.Fatal("job with migration debt is not done")
	}
}

func TestJobString(t *testing.T) {
	ty := motivType(t, 0)
	j := NewJob(7, ty, 1, 8)
	if !strings.Contains(j.String(), "job(7") {
		t.Fatalf("String = %q", j.String())
	}
	j.Predicted = true
	if !strings.Contains(j.String(), "pred(") {
		t.Fatalf("String = %q", j.String())
	}
}

func TestMigrationPolicyString(t *testing.T) {
	if ChargeStartedOnly.String() != "started-only" || ChargeAlways.String() != "always" {
		t.Fatal("policy strings wrong")
	}
	if !strings.HasPrefix(MigrationPolicy(5).String(), "MigrationPolicy(") {
		t.Fatal("unknown policy string")
	}
}

// Clone returns a copy of the job (Type is shared; it is immutable).
func (j *Job) Clone() *Job {
	c := *j
	return &c
}
