// Package sched provides the scheduling substrate shared by every resource
// manager in this repository: runtime job state with progress and migration
// accounting (the paper's cp/ep/cpm quantities, Sec 4.1/4.2), and exact EDF
// feasibility checks on single resources — preemptive for CPUs,
// non-preemptive for GPUs — including a single future release for the
// predicted task.
package sched

import (
	"fmt"

	"predrm/internal/platform"
	"predrm/internal/task"
)

// Unmapped marks a job without a resource assignment.
const Unmapped = -1

// MigrationPolicy selects when relocating a job is charged cm/em.
type MigrationPolicy int

const (
	// ChargeStartedOnly charges migration overhead only when a job that
	// has begun execution changes resource. Relocating a queued job is
	// free: nothing has been loaded yet. This is the default reading of
	// the paper's model and the library default.
	ChargeStartedOnly MigrationPolicy = iota
	// ChargeAlways charges migration overhead whenever a previously mapped
	// job changes resource, started or not. Available for ablation.
	ChargeAlways
)

// String returns a short label for the policy.
func (m MigrationPolicy) String() string {
	switch m {
	case ChargeStartedOnly:
		return "started-only"
	case ChargeAlways:
		return "always"
	default:
		return fmt.Sprintf("MigrationPolicy(%d)", int(m))
	}
}

// Job is a runtime task instance τ_j under management: an admitted request
// that has not finished, the arriving request under decision, or the
// predicted request used as a planning constraint.
type Job struct {
	// ID is the request index within its trace (unique per simulation).
	ID int
	// Type is the task type triggered by the request.
	Type *task.Type
	// Arrival is the absolute arrival time s_j. For a predicted job this
	// is the predicted arrival s_p and may lie in the future.
	Arrival float64
	// AbsDeadline is the absolute deadline s_j + d_j.
	AbsDeadline float64
	// Resource is the job's current mapping, or Unmapped.
	Resource int
	// Frac is the fraction of the job's work remaining in (0, 1]; 1 means
	// untouched. Progress is resource-independent: executing dt on
	// resource i reduces Frac by dt/c_{j,i} (Sec 4.1).
	Frac float64
	// Started reports whether the job has executed at all; a started job
	// that migrates is charged cm/em.
	Started bool
	// ExecRes is the resource the job last actually executed on, or
	// Unmapped. It distinguishes the true occupant of a non-preemptable
	// resource from a job that started elsewhere and was migrated in: only
	// the former is pinned and dispatched first.
	ExecRes int
	// MigDebt is migration time already owed but not yet served: extra
	// occupancy the job must consume on its current resource before doing
	// useful work. It is set when a migration is applied and drained by
	// the simulator.
	MigDebt float64
	// Predicted marks the planning-only job for the predicted request.
	Predicted bool
	// Fixed marks a job whose mapping is not the resource manager's
	// decision: the solvers plan around it on its given Resource and
	// never remap it. The engine never builds one; solver tests and the
	// pinned digest problems use it for load that arrives on a resource
	// of its own, possibly in the future.
	Fixed bool
}

// NewJob builds a fresh, unmapped job for a request of type ty arriving at
// arrival with relative deadline relDeadline.
func NewJob(id int, ty *task.Type, arrival, relDeadline float64) *Job {
	return &Job{
		ID:          id,
		Type:        ty,
		Arrival:     arrival,
		AbsDeadline: arrival + relDeadline,
		Resource:    Unmapped,
		ExecRes:     Unmapped,
		Frac:        1,
	}
}

// TimeLeft returns t_left = AbsDeadline − t.
func (j *Job) TimeLeft(t float64) float64 { return j.AbsDeadline - t }

// Rem returns cp_{j,r}: the worst-case execution time still to be served if
// the job runs (or continues) on resource r, excluding migration overhead
// but including any unserved migration debt. Returns task.NotExecutable if
// the type cannot run on r.
func (j *Job) Rem(r int) float64 {
	if !j.Type.ExecutableOn(r) {
		return task.NotExecutable
	}
	return j.Type.WCET[r]*j.Frac + j.MigDebt
}

// RemEnergy returns ep_{j,r}: the average energy still to be consumed on
// resource r, or task.NotExecutable.
func (j *Job) RemEnergy(r int) float64 {
	if !j.Type.ExecutableOn(r) {
		return task.NotExecutable
	}
	return j.Type.Energy[r] * j.Frac
}

// migrates reports whether assigning the job to r constitutes a charged
// migration under the policy.
func (j *Job) migrates(r int, policy MigrationPolicy) bool {
	if j.Resource == Unmapped || j.Resource == r {
		return false
	}
	if policy == ChargeAlways {
		return true
	}
	return j.Started
}

// CPM returns cpm_{j,r}: remaining execution time on r including the
// migration time overhead if assigning to r relocates the job (Sec 4.2).
func (j *Job) CPM(r int, policy MigrationPolicy) float64 {
	rem := j.Rem(r)
	if rem == task.NotExecutable {
		return task.NotExecutable
	}
	if j.migrates(r, policy) {
		rem += j.Type.MigTime
	}
	return rem
}

// EPM returns ep_{j,r} + em: remaining energy on r including the migration
// energy overhead if assigning to r relocates the job.
func (j *Job) EPM(r int, policy MigrationPolicy) float64 {
	e := j.RemEnergy(r)
	if e == task.NotExecutable {
		return task.NotExecutable
	}
	if j.migrates(r, policy) {
		e += j.Type.MigEnergy
	}
	return e
}

// Pinned reports whether the job is stuck on its current resource: it has
// begun executing on a non-preemptable resource and must run there to
// completion (Sec 2). A job that started elsewhere and was migrated onto
// the resource is not pinned until it actually executes there.
func (j *Job) Pinned(p *platform.Platform) bool {
	return j.Resource != Unmapped && j.ExecRes == j.Resource &&
		!p.Resource(j.Resource).Preemptable()
}

// Done reports whether the job has finished all work and served any
// migration debt.
func (j *Job) Done() bool { return j.Frac <= 0 && j.MigDebt <= 0 }

// String formats the job for diagnostics.
func (j *Job) String() string {
	kind := "job"
	if j.Predicted {
		kind = "pred"
	}
	return fmt.Sprintf("%s(%d type=%d s=%.3f d=%.3f res=%d frac=%.3f)",
		kind, j.ID, j.Type.ID, j.Arrival, j.AbsDeadline, j.Resource, j.Frac)
}
