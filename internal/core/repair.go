// Warm-start repair: delta-solving the admission problem.
//
// Consecutive RM activations differ by one arrival or completion, so
// instead of re-running Algorithm 1 from scratch the heuristic can keep
// the previous activation's mapping, retain the assignments of surviving
// jobs, and run the regret machinery only over the added jobs — cost
// proportional to the change, not the problem. Repair is that path. It is
// a seeding/bounding primitive, not a decision path of its own: the exact
// solver uses it to build a pruning bound that provably cannot change its
// answer (DESIGN.md §10), and budget-constrained callers may use it as a
// fast primary with the full Solve as fallback, accepting that a repaired
// mapping is generally not the mapping a cold Algorithm 1 would produce.
package core

import (
	"math"

	"predrm/internal/sched"
	"predrm/internal/task"
)

// repairMaxDelta bounds how large an activation delta Repair will attempt.
// Past it, retention covers too little of the problem for the repaired
// mapping to stay close to a fresh solve (the "drift" fallback): the
// caller should re-solve in full. The bound is deliberately generous —
// repair stays cheap well past it — and exists to keep repaired quality
// honest, not to save time.
func repairMaxDelta(jobs int) int {
	if jobs < 8 {
		return 4
	}
	return jobs / 2
}

// Repair extends the previous activation's mapping (recorded in ws) to
// problem p: surviving jobs keep their resources, pinned and fixed jobs
// go where they must, and only the added jobs — the arriving request and
// fresh predictions — are placed, in max-regret order with the same
// trial-insert EDF probes as Solve. Every touched resource is re-verified,
// so an ok result is a feasible mapping of p with energy p.Energy(mapping).
//
// Repair reports ok=false — and the caller must fall back to a full
// Solve — when ws records nothing, the delta exceeds repairMaxDelta (the
// drift guard), a retained assignment no longer fits its deadline, or an
// added job cannot be placed without disturbing retained work.
//
// The returned mapping is borrowed from the heuristic's scratch arena and
// is invalidated by the next Solve or Repair call; steady-state Repair
// allocates nothing. Provenance is not recorded: repair output seeds and
// bounds other searches, it is never itself an admission decision.
func (h *Heuristic) Repair(p *sched.Problem, ws *sched.WarmState) (mapping []int, energy float64, ok bool) {
	h.repairs.Inc()
	if !ws.Delta(p, &h.delta) {
		h.repairFail.Inc()
		return nil, 0, false
	}
	d := &h.delta
	jobs := p.Jobs
	m, n := len(jobs), p.Platform.Len()
	if d.Added+d.Removed > repairMaxDelta(m) {
		h.repairFail.Inc()
		return nil, 0, false
	}
	h.p, h.n = p, n
	h.grow(m, n)
	h.Cache.Advance()

	mapping = h.mapping[:m]
	window := p.Window()
	capacity := h.capacity[:n]
	for i := range capacity {
		capacity[i] = window
		h.lists[i].Reset()
		if h.Cache != nil {
			h.lists[i].EnableFingerprint(p.Time)
		}
	}

	// Retain: re-book every surviving job on its previous resource (pinned
	// and fixed jobs on their mandatory one). Only the cpm cells actually
	// read are computed — this loop is the O(kept) part of repair.
	added := h.unassigned[:0]
	for i, j := range jobs {
		r := d.PrevRes[i]
		if j.Fixed || j.Pinned(p.Platform) {
			r = j.Resource
		}
		if r == sched.Unmapped {
			mapping[i] = sched.Unmapped
			added = append(added, i)
			continue
		}
		c := j.CPM(r, p.Policy)
		if c == task.NotExecutable || c > j.TimeLeft(p.Time)+sched.Eps {
			return h.repairFailed()
		}
		h.cpm[i*n+r] = c
		mapping[i] = r
		capacity[r] -= c
		h.insertEntry(i, r)
	}
	h.unassigned = added

	// Verify the retained state before investing in placement: a kept job
	// that executed since the recording can only have gotten easier, but a
	// migrated-in pinned job or drifted debt can break a list.
	for r := 0; r < n; r++ {
		if h.lists[r].Len() > 0 && !h.probe(r) {
			return h.repairFailed()
		}
	}

	// Desirability rows for the added jobs only (same f_{j,i} as Solve).
	for _, ji := range added {
		j := jobs[ji]
		tl := j.TimeLeft(p.Time)
		base := ji * n
		for r := 0; r < n; r++ {
			c := j.CPM(r, p.Policy)
			h.cpm[base+r] = c
			if c == task.NotExecutable {
				h.des[base+r] = math.Inf(1)
				continue
			}
			e := j.EPM(r, p.Policy)
			if c > tl+sched.Eps {
				e += bigM
			}
			h.des[base+r] = e
		}
	}

	// Place the added jobs in max-regret order among themselves, each on
	// its most desirable resource that passes the EDF trial insert —
	// Algorithm 1's lines 8-34 restricted to the delta.
	for len(added) > 0 {
		pick := -1
		dStar := math.Inf(-1)
		for k, ji := range added {
			base := ji * n
			best, second := math.Inf(1), math.Inf(1)
			cnt := 0
			for r := 0; r < n; r++ {
				c := h.cpm[base+r]
				if c == task.NotExecutable || c > capacity[r]+sched.Eps {
					continue
				}
				cnt++
				if f := h.des[base+r]; f < best {
					best, second = f, best
				} else if f < second {
					second = f
				}
			}
			if cnt == 0 {
				return h.repairFailed()
			}
			if reg := second - best; reg > dStar {
				dStar = reg
				pick = k
			}
		}
		ji := added[pick]
		added = append(added[:pick], added[pick+1:]...)

		base := ji * n
		ps := h.pickSet[:0]
		for r := 0; r < n; r++ {
			if c := h.cpm[base+r]; c != task.NotExecutable && c <= capacity[r]+sched.Eps {
				ps = append(ps, r)
			}
		}
		placed := false
		for len(ps) > 0 {
			bi, bf := -1, math.Inf(1)
			for k, r := range ps {
				if f := h.des[base+r]; f < bf {
					bf, bi = f, k
				}
			}
			r := ps[bi]
			pos := h.insertEntry(ji, r)
			if h.probe(r) {
				mapping[ji] = r
				capacity[r] -= h.cpm[base+r]
				placed = true
				break
			}
			h.lists[r].Remove(p.Time, pos)
			ps = append(ps[:bi], ps[bi+1:]...)
		}
		if !placed {
			return h.repairFailed()
		}
	}

	h.flushCacheStats()
	return mapping, p.Energy(mapping), true
}

// probe checks resource r's current entry list, through the cache when
// one is attached.
func (h *Heuristic) probe(r int) bool {
	return h.lists[r].Feasible(h.p.Platform.Resource(r).Preemptable(), h.p.Time,
		&h.edf, h.Cache, &h.hitsDelta, &h.missDelta, nil)
}

// repairFailed counts and reports an abandoned repair.
func (h *Heuristic) repairFailed() ([]int, float64, bool) {
	h.repairFail.Inc()
	h.flushCacheStats()
	return nil, 0, false
}
