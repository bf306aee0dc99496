// Package static implements a quasi-static baseline resource manager in
// the spirit of the related work the paper contrasts itself against
// ([11], [15], [6] in its bibliography): per-task mappings are derived at
// design time from the task set alone, and the runtime system only
// *applies* them — it never remaps an admitted task.
//
// The design-time artefact is a preference table: for every task type, the
// executable resources ordered by increasing energy. At runtime an
// arriving task is placed on the first preference that passes the EDF
// schedulability check against the standing (immutable) assignments;
// if none passes, it is rejected. Comparing this baseline against the
// paper's heuristic and exact RMs quantifies how much of their quality
// comes from dynamic remapping rather than from the placement rule.
package static

import (
	"math"

	"predrm/internal/core"
	"predrm/internal/sched"
	"predrm/internal/task"
)

// Table is the design-time artefact: Table[typeID] lists resource indices
// in preference order.
type Table [][]int

// BuildTable derives the preference table from a task set: executable
// resources sorted by ascending energy (ties by WCET, then index) — the
// design-time proxy for "near-optimal static mappings".
func BuildTable(set *task.Set) Table {
	t := make(Table, set.Len())
	n := set.Platform.Len()
	for id, ty := range set.Types {
		var rs []int
		for r := 0; r < n; r++ {
			if ty.ExecutableOn(r) {
				rs = append(rs, r)
			}
		}
		// Insertion sort by (energy, wcet, index): small n, no closures.
		for i := 1; i < len(rs); i++ {
			for j := i; j > 0; j-- {
				a, b := rs[j-1], rs[j]
				if ty.Energy[a] < ty.Energy[b] ||
					(ty.Energy[a] == ty.Energy[b] && ty.WCET[a] <= ty.WCET[b]) {
					break
				}
				rs[j-1], rs[j] = rs[j], rs[j-1]
			}
		}
		t[id] = rs
	}
	return t
}

// RM is the quasi-static resource manager. Construct with New.
type RM struct {
	table Table
}

// New builds the runtime RM over a design-time table.
func New(table Table) *RM { return &RM{table: table} }

var _ core.Solver = (*RM)(nil)

// Solve keeps every already-mapped job in place and assigns each unmapped
// job (normally just the arriving one) to its first schedulable
// design-time preference. Predicted jobs are ignored: a quasi-static RM
// has no use for forecasts (their slots are reported mapped to their
// preference too, so the admission wrapper behaves uniformly).
func (s *RM) Solve(p *sched.Problem) core.Decision {
	n := p.Platform.Len()
	mapping := make([]int, len(p.Jobs))
	entries := make([][]sched.Entry, n)
	place := func(idx, r int) {
		j := p.Jobs[idx]
		mapping[idx] = r
		entries[r] = append(entries[r], sched.Entry{
			ReadyAt:     math.Max(j.Arrival, p.Time),
			Deadline:    j.AbsDeadline,
			Rem:         j.CPM(r, p.Policy),
			PinnedFirst: j.Pinned(p.Platform) && j.Resource == r,
		})
	}

	// Standing assignments are immutable.
	var free []int
	for idx, j := range p.Jobs {
		if j.Resource != sched.Unmapped {
			place(idx, j.Resource)
			continue
		}
		mapping[idx] = sched.Unmapped
		free = append(free, idx)
	}
	for _, idx := range free {
		j := p.Jobs[idx]
		if j.Type.ID < 0 || j.Type.ID >= len(s.table) {
			return core.Decision{Mapping: mapping, Feasible: false}
		}
		placed := false
		for _, r := range s.table[j.Type.ID] {
			cand := sched.Entry{
				ReadyAt:  math.Max(j.Arrival, p.Time),
				Deadline: j.AbsDeadline,
				Rem:      j.CPM(r, p.Policy),
			}
			trial := append(append(make([]sched.Entry, 0, len(entries[r])+1), entries[r]...), cand)
			if sched.ResourceFeasible(p.Platform.Resource(r).Preemptable(), p.Time, trial, nil) {
				place(idx, r)
				placed = true
				break
			}
		}
		if !placed {
			return core.Decision{Mapping: mapping, Feasible: false}
		}
	}
	return core.Decision{Mapping: mapping, Feasible: true, Energy: p.Energy(mapping)}
}
