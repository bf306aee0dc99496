package sched

import "sort"

// LoadIndex keeps a fixed population of candidates (platform shards, or
// resources) ordered by a load score, supporting O(log n) repositioning
// when one candidate's load changes — the same binary-search discipline
// EntryList uses for service order. The order is strict and total:
// ascending (load, id), so equal loads resolve to the lower id and every
// walk over the index is deterministic.
//
// The shard router walks the index from least loaded upward and takes
// the first eligible candidate, which makes the placement pre-filter
// O(log n) for the reposition plus the (typically 1-step) eligibility
// walk, instead of a full scan per arrival.
type LoadIndex struct {
	load []float64 // id -> current load
	rank []int     // position -> id, ordered by (load, id)
	pos  []int     // id -> position in rank
}

// NewLoadIndex builds an index over ids 0..n-1, all at load 0.
func NewLoadIndex(n int) *LoadIndex {
	x := &LoadIndex{
		load: make([]float64, n),
		rank: make([]int, n),
		pos:  make([]int, n),
	}
	for i := 0; i < n; i++ {
		x.rank[i] = i
		x.pos[i] = i
	}
	return x
}

// Len returns the population size.
func (x *LoadIndex) Len() int { return len(x.rank) }

// Load returns id's current load.
func (x *LoadIndex) Load(id int) float64 { return x.load[id] }

// At returns the id at position k of the ascending (load, id) order;
// At(0) is the least loaded.
func (x *LoadIndex) At(k int) int { return x.rank[k] }

// less reports whether candidate a orders strictly before (load, id) b.
func (x *LoadIndex) less(a int, load float64, b int) bool {
	if x.load[a] != load {
		return x.load[a] < load
	}
	return a < b
}

// Update sets id's load and repositions it: the entry is lifted out of
// the order, a binary search over the remaining (still sorted) entries
// finds its new rank, and the block in between shifts by one.
func (x *LoadIndex) Update(id int, load float64) {
	old := x.pos[id]
	x.load[id] = load
	n := len(x.rank)
	copy(x.rank[old:], x.rank[old+1:])
	rest := x.rank[:n-1]
	target := sort.Search(len(rest), func(k int) bool {
		return !x.less(rest[k], load, id)
	})
	copy(x.rank[target+1:], x.rank[target:n-1])
	x.rank[target] = id
	lo, hi := old, target
	if lo > hi {
		lo, hi = hi, lo
	}
	for k := lo; k <= hi; k++ {
		x.pos[x.rank[k]] = k
	}
}
