package sched

import (
	"fmt"

	"predrm/internal/platform"
	"predrm/internal/task"
)

// Problem is one resource-management decision instance: the state the RM
// sees when it is activated at Time (the paper's set S̄ plus the platform).
//
// Solvers treat a Problem (jobs, platform, policy) as strictly read-only
// and keep their trial state in their own scratch (EntryList).
type Problem struct {
	// Platform the jobs are mapped onto.
	Platform *platform.Platform
	// Time is the activation time t.
	Time float64
	// Jobs is S̄: all admitted unfinished jobs, the arriving job, and — if
	// prediction is in use — one job with Predicted set per forecast
	// horizon step (the paper uses one; multi-step lookahead is this
	// library's extension). Real jobs have Arrival ≤ Time.
	Jobs []*Job
	// Policy selects migration charging.
	Policy MigrationPolicy
}

// PredIndex returns the index of the first predicted job in Jobs, or -1.
func (p *Problem) PredIndex() int {
	for i, j := range p.Jobs {
		if j.Predicted {
			return i
		}
	}
	return -1
}

// NumPredicted counts the predicted jobs.
func (p *Problem) NumPredicted() int {
	n := 0
	for _, j := range p.Jobs {
		if j.Predicted {
			n++
		}
	}
	return n
}

// WithoutPred returns a copy of the problem with the predicted job removed
// (the Sec 4.1 fallback). Jobs are shared, not cloned.
func (p *Problem) WithoutPred() *Problem {
	q := &Problem{Platform: p.Platform, Time: p.Time, Policy: p.Policy}
	q.Jobs = make([]*Job, 0, len(p.Jobs))
	for _, j := range p.Jobs {
		if !j.Predicted {
			q.Jobs = append(q.Jobs, j)
		}
	}
	return q
}

// Window returns K̄: the span from Time to the latest absolute deadline in
// S̄ (Sec 4.1).
func (p *Problem) Window() float64 {
	k := 0.0
	for _, j := range p.Jobs {
		if left := j.TimeLeft(p.Time); left > k {
			k = left
		}
	}
	return k
}

// Validate performs structural checks useful in tests and at API
// boundaries.
func (p *Problem) Validate() error {
	if p.Platform == nil {
		return fmt.Errorf("sched: problem has no platform")
	}
	for i, j := range p.Jobs {
		if j == nil {
			return fmt.Errorf("sched: nil job at %d", i)
		}
		if !j.Predicted && !j.Fixed && j.Arrival > p.Time+Eps {
			return fmt.Errorf("sched: real job %d arrives at %v after activation %v", j.ID, j.Arrival, p.Time)
		}
		if j.Fixed && j.Resource == Unmapped {
			return fmt.Errorf("sched: fixed job %d has no static resource", j.ID)
		}
		if j.Frac <= 0 {
			return fmt.Errorf("sched: job %d already finished (frac %v)", j.ID, j.Frac)
		}
		if j.Resource != Unmapped && (j.Resource < 0 || j.Resource >= p.Platform.Len()) {
			return fmt.Errorf("sched: job %d on unknown resource %d", j.ID, j.Resource)
		}
	}
	return nil
}

// entry builds the feasibility Entry for job j assigned to resource r.
func (p *Problem) entry(j *Job, r int) Entry {
	return Entry{
		ReadyAt:     maxf(j.Arrival, p.Time),
		Deadline:    j.AbsDeadline,
		Rem:         j.CPM(r, p.Policy),
		PinnedFirst: j.Pinned(p.Platform) && j.Resource == r,
	}
}

// MappingValid reports whether mapping respects the hard structural
// constraints independent of timing: every job mapped to an executable
// resource and pinned jobs kept in place. mapping[i] == Unmapped is
// invalid here; partial mappings are the RMs' concern.
func (p *Problem) MappingValid(mapping []int) bool {
	if len(mapping) != len(p.Jobs) {
		return false
	}
	for i, j := range p.Jobs {
		r := mapping[i]
		if r < 0 || r >= p.Platform.Len() || !j.Type.ExecutableOn(r) {
			return false
		}
		if (j.Fixed || j.Pinned(p.Platform)) && r != j.Resource {
			return false
		}
	}
	return true
}

// FeasibleMapping reports whether the complete mapping meets every
// deadline under per-resource EDF (Sec 4.1 semantics).
func (p *Problem) FeasibleMapping(mapping []int) bool {
	if !p.MappingValid(mapping) {
		return false
	}
	n := p.Platform.Len()
	buckets := make([][]Entry, n)
	for i, j := range p.Jobs {
		r := mapping[i]
		e := p.entry(j, r)
		if e.Rem > j.TimeLeft(p.Time)+Eps {
			return false // constraint (2)
		}
		buckets[r] = append(buckets[r], e)
	}
	for r := 0; r < n; r++ {
		if len(buckets[r]) == 0 {
			continue
		}
		if !ResourceFeasible(p.Platform.Resource(r).Preemptable(), p.Time, buckets[r], nil) {
			return false
		}
	}
	return true
}

// Energy returns the paper's objective for the mapping:
// Σ_j (ep_{j,i} + em_{j,k,i}), including the predicted job if present.
// The mapping must be structurally valid.
func (p *Problem) Energy(mapping []int) float64 {
	total := 0.0
	for i, j := range p.Jobs {
		e := j.EPM(mapping[i], p.Policy)
		if e == task.NotExecutable {
			return task.NotExecutable
		}
		total += e
	}
	return total
}

// Schedule reconstructs the per-resource EDF schedule of a mapping: the
// result is indexed by resource id, each segment's Index naming a job of
// p.Jobs, and an unused resource has no segments. The second result
// reports overall feasibility; a structurally invalid mapping yields
// (nil, false). With a non-nil scratch the segments live in the scratch
// and stay valid only until its next use, and a warm scratch makes the
// call allocation-free; a nil scratch means per-call buffers the caller
// owns.
func (p *Problem) Schedule(mapping []int, s *ScheduleScratch) ([][]Segment, bool) {
	if !p.MappingValid(mapping) {
		return nil, false
	}
	if s == nil {
		s = new(ScheduleScratch)
	}
	n := p.Platform.Len()
	s.reset(n)
	for i, r := range mapping {
		s.buckets[r] = append(s.buckets[r], i)
	}
	ok := true
	for r, bucket := range s.buckets {
		entries := s.entries[:0]
		for _, i := range bucket {
			entries = append(entries, p.entry(p.Jobs[i], r))
		}
		s.entries = entries
		if !simulateEDF(p.Platform.Resource(r).Preemptable(), p.Time, entries, s.edf.rems(len(entries)), &s.segs[r], nil) {
			ok = false
		}
		// Translate entry indices back to job indices.
		for k := range s.segs[r] {
			s.segs[r][k].Index = bucket[s.segs[r][k].Index]
		}
	}
	return s.segs, ok
}
