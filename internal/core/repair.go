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
// fresh predictions — are placed, by the same max-regret placement loop
// as Solve (place, on the same candidate source), restricted to the
// delta. Every touched resource is re-verified, so an ok result is a
// feasible mapping of p with energy p.Energy(mapping).
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
	if !ws.Delta(p, &h.delta) {
		return nil, 0, false
	}
	d := &h.delta
	if d.Added+d.Removed > repairMaxDelta(len(p.Jobs)) {
		return nil, 0, false
	}
	h.reset(p)

	// Retain: re-book every surviving job on its previous resource (pinned
	// and fixed jobs on their mandatory one). Only the retained resource's
	// cpm is computed — this loop is the O(kept) part of repair.
	mapping = h.mapping[:len(p.Jobs)]
	added := h.unassigned[:0]
	for i, j := range p.Jobs {
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
		h.assign(i, r, c)
	}

	// Verify the retained state before investing in placement: a kept job
	// that executed since the recording can only have gotten easier, but a
	// migrated-in pinned job or drifted debt can break a list.
	for r := 0; r < h.n; r++ {
		if h.lists[r].Len() > 0 && !h.probe(r, nil) {
			return h.repairFailed()
		}
	}

	// Place the added jobs: Algorithm 1's lines 8-34 restricted to the
	// delta, always in max-regret order.
	if h.place(added, false, false) >= 0 {
		return h.repairFailed()
	}
	h.cacheCounters.Flush(&h.pr)
	return mapping, p.Energy(mapping), true
}

// repairFailed reports an abandoned repair.
func (h *Heuristic) repairFailed() ([]int, float64, bool) {
	h.cacheCounters.Flush(&h.pr)
	return nil, 0, false
}
