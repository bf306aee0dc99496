package sched

// EDFScratch holds the reusable buffers of the EDF feasibility routines
// (ResourceFeasible and EntryList.Feasible): the remaining-work vector of
// the event simulation and the index buffer of the synchronous cumulative
// check. Solvers own one scratch per instance and thread it through every
// probe, making the decision hot path allocation-free in steady state. The
// zero value is ready to use; buffers grow on demand and are retained
// across calls. An EDFScratch is not safe for concurrent use.
type EDFScratch struct {
	rem   []float64
	order []int
}

// rems returns the remaining-work buffer sized to n; a nil scratch
// allocates a fresh one.
func (s *EDFScratch) rems(n int) []float64 {
	if s == nil {
		return make([]float64, n)
	}
	if cap(s.rem) < n {
		s.rem = make([]float64, n)
	}
	s.rem = s.rem[:n]
	return s.rem
}

// ScheduleScratch holds the reusable buffers of Problem.Schedule: the
// per-resource job-index buckets, one Entry buffer, the EDF work buffer
// and the per-resource segment slices the result is built in. The zero
// value is ready to use; buffers grow on demand and are retained across
// calls, so a warm scratch schedules without allocating. Not safe for
// concurrent use.
type ScheduleScratch struct {
	buckets [][]int
	entries []Entry
	edf     EDFScratch
	segs    [][]Segment
}

// reset sizes the buckets and segment slices to n resources, emptying
// every bucket while keeping its storage.
func (s *ScheduleScratch) reset(n int) {
	if cap(s.buckets) < n {
		s.buckets, s.segs = make([][]int, n), make([][]Segment, n)
	}
	s.buckets, s.segs = s.buckets[:n], s.segs[:n]
	for r := range s.buckets {
		s.buckets[r] = s.buckets[r][:0]
	}
}
