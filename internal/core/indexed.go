// Index candidate source: Algorithm 1's candidate queries without the m×n
// matrices.
//
// The matrix source materialises cpm/desirability for every (job,
// resource) pair — O(jobs × resources) per activation, fine for the
// paper's 6-resource platform but quadratic waste on a 512-resource one
// where each job only ever touches its one or two most desirable
// candidates. The index answers the same queries sublinearly in platform
// size:
//
//   - per task type, a candidate index: the executable resources sorted
//     by (energy, id). Desirability is a positive scaling of energy plus
//     a per-job constant (migration surcharge) and the bigM deadline
//     penalty, so walking the index yields candidates in exactly the
//     (desirability, resource) order the matrix source's arg-min scans
//     produce — the kind-bucketed resource index of the scale-out
//     design (DESIGN.md §12).
//   - the per-job candSummary is rewalked, not rescanned: the first two
//     candidates of the merged order.
//
// Equivalence argument. place (heuristic.go) consumes a candidate source
// through exactly two queries: "the two smallest desirabilities over the
// feasible set, scanning resources in ascending id with strict <" (the
// regret inputs, summarise) and "feasible-set members in ascending (des,
// id) order" (the placement walk past the summary, nextCand). Both are
// order queries over the same multiset of (des, r) pairs, so producing
// candidates in ascending (des, r) order reproduces them verbatim.
// Within one solve a job's desirability is energy[r]·Frac + constant
// (+bigM), monotone in energy[r] over each of the three candidate
// streams — non-penalised, penalised (+bigM), and the job's current
// resource (no migration surcharge) — so each stream is already sorted
// by the index order and a 3-way merge yields the global order. Equal
// desirabilities across different energies (a rounding collision) are
// handled by buffering each equal-desirability run and emitting it in
// ascending resource id, which is the matrix scan's tie-break.
// TestIndexedHeuristicMatchesPlain and FuzzHeuristicMatchesReference pin
// both sources against the seed implementation; the race-enabled suite
// runs them on every `make check`.
package core

import (
	"math"
	"sort"

	"predrm/internal/sched"
	"predrm/internal/task"
)

// indexedMinResources picks the candidate source: below it the matrices
// are small enough that their tight loops win (forcing the index at 5c1g
// measured ~48% slower heuristic solves), at and above it the index does.
const indexedMinResources = 32

// candSummary caches one job's regret inputs on either candidate source:
// the best and second-best (desirability, resource) over its current
// feasible set, with their cpm. place re-summarises a job only when a
// booking evicts its best or second resource; no other eviction can
// change the pair. Capacities only fall during place and desirabilities
// and cpm are fixed per solve, so the feasible set only shrinks, and
// losing a member behind the second leaves the first two as they were:
// a summary is exact whenever it is read, and the placement walk and
// the eviction test read it instead of the cost rows.
type candSummary struct {
	bestR, secondR     int32 // -1 when absent
	bestDes, secondDes float64
	bestCpm, secondCpm float64
	empty              bool // feasible set is empty (line 22: no solution)
}

// runCand is one buffered candidate of an equal-desirability run.
type runCand struct {
	r        int32
	des, cpm float64
}

// candStream walks one desirability-sorted slice of a job's candidates:
// the non-penalised members (pen false) or the bigM-penalised ones (pen
// true). Equal-desirability runs are buffered and sorted by resource id
// so ties break exactly as the matrix source's ascending-id scans do.
type candStream struct {
	pen bool
	i   int       // cursor into the type's candidate order
	run []runCand // current equal-des run, ascending resource id
	ri  int       // next unconsumed run element
}

// candIter merges a job's three candidate streams — non-penalised,
// penalised, and the current-resource singleton (which carries no
// migration surcharge and therefore sorts independently) — into one
// ascending (desirability, resource) sequence. One iterator lives on
// the Heuristic and is re-initialised per walk; its run buffers are
// part of the scratch arena.
type candIter struct {
	jt     *jobTerms
	a, b   candStream // non-penalised / penalised walks over jt.ord
	curR   int        // current-resource candidate; -1 absent or consumed
	curDes float64
	curCpm float64
}

// typeOrder returns t's candidate index: executable resources sorted by
// (energy, id). Orders are immutable and cached per *task.Type — task
// types are immutable and live as long as their Set, so the cache is
// bounded by the type universe of the workload.
func (h *Heuristic) typeOrder(t *task.Type) []int32 {
	if h.ord == nil {
		h.ord = make(map[*task.Type][]int32)
	}
	if o, ok := h.ord[t]; ok {
		return o
	}
	o := make([]int32, 0, len(t.Energy))
	for r := range t.Energy {
		if t.ExecutableOn(r) {
			o = append(o, int32(r))
		}
	}
	sort.Slice(o, func(a, b int) bool {
		ea, eb := t.Energy[o[a]], t.Energy[o[b]]
		if ea != eb {
			return ea < eb
		}
		return o[a] < o[b]
	})
	h.ord[t] = o
	return o
}

// itInit points the shared iterator at job ji's candidates. Streams are
// filled lazily by itNext, so a walk the caller abandons after one or
// two candidates (rewalk) never scans past what it consumed, and a
// placement walk that needs a third (walkNext) rescans only those two.
func (h *Heuristic) itInit(ji int) {
	jt := &h.terms[ji]
	it := &h.it
	it.jt = jt
	it.a.pen, it.a.i, it.a.ri = false, 0, 0
	it.a.run = it.a.run[:0]
	it.b.pen, it.b.i, it.b.ri = true, 0, 0
	it.b.run = it.b.run[:0]
	it.curR = -1
	if r := jt.cur; r != sched.Unmapped && jt.executable(r) {
		c := jt.cpm(r) // staying put: no migration surcharge
		if c <= h.capacity[r]+sched.Eps {
			des := jt.epm(r)
			if c > jt.tl+sched.Eps {
				des += bigM
			}
			it.curR, it.curDes, it.curCpm = r, des, c
		}
	}
}

// itAdvance refills stream s with its next equal-desirability run of
// feasible-set members. Desirability is non-decreasing along the type
// order within one stream, so the run ends at the first member whose
// desirability strictly exceeds the run's; the cursor parks there for
// the next refill. The run is kept in ascending resource id.
func (h *Heuristic) itAdvance(s *candStream) {
	jt := h.it.jt
	s.run = s.run[:0]
	s.ri = 0
	var runDes float64
	for ; s.i < len(jt.ord); s.i++ {
		r := int(jt.ord[s.i])
		if r == jt.cur {
			continue // merged separately as the singleton stream
		}
		c := jt.cpm(r) // executable by construction of ord
		if c > h.capacity[r]+sched.Eps {
			continue // not in the feasible set (line 10)
		}
		pen := c > jt.tl+sched.Eps
		if pen != s.pen {
			continue // belongs to the other stream
		}
		des := jt.epm(r)
		if pen {
			des += bigM
		}
		if len(s.run) == 0 {
			runDes = des
		} else if des != runDes {
			break // next run starts here
		}
		// Insertion keeps the run ascending in r (runs are nearly always
		// singletons; a multi-element run is an exact float collision).
		k := len(s.run)
		s.run = append(s.run, runCand{r: int32(r), des: des, cpm: c})
		for k > 0 && s.run[k-1].r > s.run[k].r {
			s.run[k-1], s.run[k] = s.run[k], s.run[k-1]
			k--
		}
	}
}

// itNext yields the next candidate in ascending (desirability, resource)
// order: resource, desirability, cpm. ok is false when the feasible set
// is exhausted.
//
// The penalised stream is not even scanned until every non-penalised
// candidate has been consumed: a penalised desirability carries +bigM
// and a non-penalised one is a plain EPM in [0, bigM), so all of stream
// a (and a non-penalised current-resource candidate) sort strictly
// before all of stream b. This is the same dominance bigM's value is
// chosen for, and it is what keeps the common-case walk — rewalk's two
// candidates, nothing near its deadline — from paying an O(platform)
// scan for penalised members that do not exist.
func (h *Heuristic) itNext() (int, float64, float64, bool) {
	it := &h.it
	ord := it.jt.ord
	if it.a.ri == len(it.a.run) && it.a.i < len(ord) {
		h.itAdvance(&it.a)
	}
	aOK := it.a.ri < len(it.a.run)
	if !aOK && !(it.curR >= 0 && it.curDes < bigM) &&
		it.b.ri == len(it.b.run) && it.b.i < len(ord) {
		h.itAdvance(&it.b)
	}
	const (
		srcNone = iota
		srcA
		srcB
		srcCur
	)
	src := srcNone
	var r int32
	var des, c float64
	if aOK {
		head := &it.a.run[it.a.ri]
		src, r, des, c = srcA, head.r, head.des, head.cpm
	}
	if it.b.ri < len(it.b.run) {
		head := &it.b.run[it.b.ri]
		if src == srcNone || head.des < des || (head.des == des && head.r < r) {
			src, r, des, c = srcB, head.r, head.des, head.cpm
		}
	}
	if it.curR >= 0 {
		if src == srcNone || it.curDes < des || (it.curDes == des && int32(it.curR) < r) {
			src, r, des, c = srcCur, int32(it.curR), it.curDes, it.curCpm
		}
	}
	switch src {
	case srcNone:
		return 0, 0, 0, false
	case srcA:
		it.a.ri++
	case srcB:
		it.b.ri++
	case srcCur:
		it.curR = -1
	}
	return int(r), des, c, true
}

// rewalk is summarise on the index: job ji's candidate summary is the
// first two candidates of the merged order.
func (h *Heuristic) rewalk(ji int) {
	h.itInit(ji)
	cc := &h.cand[ji]
	r, des, c, ok := h.itNext()
	if !ok {
		*cc = candSummary{bestR: -1, secondR: -1,
			bestDes: math.Inf(1), secondDes: math.Inf(1), empty: true}
		return
	}
	cc.empty = false
	cc.bestR, cc.bestDes, cc.bestCpm = int32(r), des, c
	if r2, des2, c2, ok2 := h.itNext(); ok2 {
		cc.secondR, cc.secondDes, cc.secondCpm = int32(r2), des2, c2
	} else {
		cc.secondR, cc.secondDes = -1, math.Inf(1) // |F_j| == 1 (line 14)
	}
}
