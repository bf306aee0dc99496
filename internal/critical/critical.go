// Package critical models the safety-critical hard real-time workload the
// paper sets aside in Sec 2: applications whose resource demand is known
// at design time and whose allocations are decided offline ("well
// established static or quasi-static techniques"), stored for online use.
// At runtime the resource manager grants these tasks their static
// resources and runs the adaptive policy over the remaining capacity.
//
// A critical task is periodic, statically mapped to one preemptable
// resource, and released forever from its offset. The design-time
// admission check is the classic density bound per resource
// (Σ WCET/min(Deadline, Period) ≤ 1), sufficient for EDF; at runtime every
// adaptive admission additionally accounts for each upcoming critical
// release inside its decision window, so critical deadlines hold by
// construction (the simulator audits them).
package critical

import (
	"errors"
	"fmt"
	"math"

	"predrm/internal/platform"
	"predrm/internal/sched"
	"predrm/internal/task"
)

// Task is one design-time-allocated hard real-time task.
type Task struct {
	// ID identifies the task within its Set (0-based).
	ID int
	// Name is a human-readable label.
	Name string
	// Resource is the static design-time mapping (must be preemptable).
	Resource int
	// Period between releases; the first release is at Offset.
	Period float64
	// Offset of the first release.
	Offset float64
	// WCET on the static resource.
	WCET float64
	// Energy consumed per job on the static resource.
	Energy float64
	// Deadline relative to each release (0 < Deadline ≤ Period).
	Deadline float64
}

// Density returns the task's processor density WCET/min(Deadline, Period).
func (t *Task) Density() float64 {
	return t.WCET / math.Min(t.Deadline, t.Period)
}

// ReleaseAt returns the k-th release time (k ≥ 0).
func (t *Task) ReleaseAt(k int) float64 { return t.Offset + float64(k)*t.Period }

// NextReleaseIndex returns the smallest k with ReleaseAt(k) >= at.
func (t *Task) NextReleaseIndex(at float64) int {
	if at <= t.Offset {
		return 0
	}
	return int(math.Ceil((at - t.Offset - sched.Eps) / t.Period))
}

// Validate checks the task against a platform.
func (t *Task) Validate(p *platform.Platform) error {
	switch {
	case t.Resource < 0 || t.Resource >= p.Len():
		return fmt.Errorf("critical: task %d on unknown resource %d", t.ID, t.Resource)
	case !p.Resource(t.Resource).Preemptable():
		return fmt.Errorf("critical: task %d statically mapped to non-preemptable %s; design-time guarantees require a preemptable resource",
			t.ID, p.Resource(t.Resource).Name)
	case t.Period <= 0 || t.WCET <= 0 || t.Energy < 0 || t.Offset < 0:
		return fmt.Errorf("critical: task %d has non-positive parameters", t.ID)
	case t.Deadline <= 0 || t.Deadline > t.Period+sched.Eps:
		return fmt.Errorf("critical: task %d needs 0 < deadline ≤ period", t.ID)
	case t.WCET > t.Deadline+sched.Eps:
		return fmt.Errorf("critical: task %d cannot meet its own deadline", t.ID)
	}
	return nil
}

// Set is a design-time critical workload.
type Set struct {
	Tasks []*Task
}

// Validate performs the design-time admission check: per-task sanity and
// the per-resource density bound.
func (s *Set) Validate(p *platform.Platform) error {
	if s == nil || len(s.Tasks) == 0 {
		return errors.New("critical: empty set")
	}
	density := make([]float64, p.Len())
	for i, t := range s.Tasks {
		if t.ID != i {
			return fmt.Errorf("critical: task at index %d has ID %d", i, t.ID)
		}
		if err := t.Validate(p); err != nil {
			return err
		}
		density[t.Resource] += t.Density()
	}
	for r, d := range density {
		if d > 1+sched.Eps {
			return fmt.Errorf("critical: resource %s over-committed (density %.3f > 1)",
				p.Resource(r).Name, d)
		}
	}
	return nil
}

// Utilization returns the per-resource critical density.
func (s *Set) Utilization(p *platform.Platform) []float64 {
	density := make([]float64, p.Len())
	for _, t := range s.Tasks {
		density[t.Resource] += t.Density()
	}
	return density
}

// jobType builds the single-resource task.Type backing a critical task's
// runtime jobs.
func (s *Set) jobType(t *Task, p *platform.Platform) *task.Type {
	wcet := make([]float64, p.Len())
	energy := make([]float64, p.Len())
	for i := range wcet {
		wcet[i] = task.NotExecutable
		energy[i] = task.NotExecutable
	}
	wcet[t.Resource] = t.WCET
	energy[t.Resource] = t.Energy
	return &task.Type{ID: -1 - t.ID, WCET: wcet, Energy: energy}
}

// JobID encodes critical task tid's k-th release as a negative job ID so
// critical jobs never collide with trace request indices.
func JobID(tid, k int) int { return -1 - tid - k*1000 }

// Release materialises the k-th job of task tid, mapped and fixed on its
// static resource.
func (s *Set) Release(p *platform.Platform, tid, k int) *sched.Job {
	t := s.Tasks[tid]
	j := sched.NewJob(JobID(tid, k), s.jobType(t, p), t.ReleaseAt(k), t.Deadline)
	j.Resource = t.Resource
	j.Fixed = true
	return j
}

// UpcomingJobs returns fixed future jobs for every release in (from, to],
// for inclusion in an adaptive admission problem. The caller owns the
// returned jobs; they are planning copies, not runtime state.
func (s *Set) UpcomingJobs(p *platform.Platform, from, to float64) []*sched.Job {
	var jobs []*sched.Job
	for tid, t := range s.Tasks {
		for k := t.NextReleaseIndex(from + sched.Eps); ; k++ {
			rel := t.ReleaseAt(k)
			if rel > to {
				break
			}
			if rel <= from+sched.Eps {
				continue
			}
			jobs = append(jobs, s.Release(p, tid, k))
		}
	}
	return jobs
}
