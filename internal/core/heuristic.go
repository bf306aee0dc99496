// Package core implements the paper's primary contribution: the fast
// knapsack-style mapping heuristic (Algorithm 1, Sec 4.3) and the admission
// protocol that wraps any mapping solver with the with-/without-prediction
// fallback (Sec 4.1).
//
// The heuristic treats resources as knapsacks whose capacity is the
// available processing time within the decision window K̄, and tasks as
// items weighted by cpm. Tasks are assigned in max-regret order: the task
// whose best and second-best resources differ most in desirability is
// placed first, on its most desirable resource that passes the EDF
// schedulability check.
package core

import (
	"math"

	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

// bigM is the Algorithm 1 penalty making a resource undesirable when the
// task's execution demand exceeds its deadline slack. Any value safely
// above all reachable energy sums works; energies are O(10) per task and
// problems hold tens of tasks.
const bigM = 1e9

// Decision is a solver's answer for one Problem.
type Decision struct {
	// Mapping assigns Problem.Jobs[i] to resource Mapping[i]; sched.Unmapped
	// if the solver failed.
	Mapping []int
	// Feasible reports whether Mapping schedules every job (including a
	// predicted one) within its deadline.
	Feasible bool
	// Energy is the objective value of Mapping when feasible.
	Energy float64
}

// Solver maps all jobs of a problem at once. Implementations must treat
// the problem as read-only — also because a solver may parallelise
// internally (exact.Optimal with Workers > 1 shares one Problem across its
// search goroutines). The concurrency contract is one-sided: Solve is
// called from a single goroutine at a time per instance, and whatever
// concurrency an implementation uses stays behind that call.
type Solver interface {
	Solve(p *sched.Problem) Decision
}

// Heuristic is the paper's Algorithm 1. The zero value is ready to use.
//
// A Heuristic keeps a reusable scratch arena (mapping, capacities,
// per-resource entry lists, the cpm/desirability matrices and the
// incremental feasible-set caches) that is reset — not reallocated — on
// every Solve, so the decision hot path is allocation-free in steady state
// apart from the returned Decision.Mapping. It is therefore not safe for
// concurrent use: give each goroutine its own instance.
type Heuristic struct {
	// Greedy disables the max-regret task ordering and assigns jobs in
	// index order instead (ablation A1). The per-resource capacity and
	// schedulability machinery is unchanged.
	Greedy bool

	// Cache, when non-nil, routes the placement EDF probes through a
	// cross-activation feasibility cache (sched.FeasCache) keyed by the
	// PR 5 entry-list fingerprints. A cached verdict is by construction
	// the verdict the probe would have computed, so decisions are
	// unchanged — this is the heuristic's warm start: consecutive
	// activations answer most probes from each other's work. Nil (the
	// zero value) keeps the probes direct and pays nothing.
	Cache *sched.FeasCache

	// Telemetry instruments (nil-safe no-ops until AttachMetrics).
	solves, infeasible   *telemetry.Counter
	problemJobs          *telemetry.Histogram
	repairs, repairFail  *telemetry.Counter
	cacheHits, cacheMiss *telemetry.Counter
	cacheRate            *telemetry.Gauge

	// prov, when attached, records candidate feasibility verdicts and the
	// regret placement order (nil-safe no-op otherwise; the hot path pays
	// one nil check).
	prov *telemetry.ProvRecorder

	// Per-solve state, valid between the top of Solve and its return.
	p *sched.Problem
	n int // p.Platform.Len()

	// Scratch arena. cpm and des flatten the [job][resource] matrices as
	// job*n+r; feas flattens the feasible-set membership the same way.
	mapping    []int
	capacity   []float64
	lists      []sched.EntryList
	edf        sched.EDFScratch
	cpm        []float64
	des        []float64
	feas       []bool
	feasCount  []int
	best       []float64 // best desirability over the current feasible set
	second     []float64 // second-best desirability (+Inf when |F_j| == 1)
	unassigned []int
	pickSet    []int

	// delta is the Repair scratch; hitsDelta/missDelta batch the cache
	// probe statistics per solve (flushed into Cache and the instruments).
	delta                sched.MappingDelta
	hitsDelta, missDelta int64

	// Indexed candidate-scan state (indexed.go): the per-type candidate
	// orders, the per-job best/second summaries and the shared candidate
	// iterator. noIndex pins the plain path for differential tests.
	ord     map[*task.Type][]int32
	cand    []candSummary
	it      candIter
	noIndex bool
}

var _ Solver = (*Heuristic)(nil)
var _ telemetry.Instrumentable = (*Heuristic)(nil)
var _ telemetry.ProvenanceAware = (*Heuristic)(nil)

// AttachMetrics registers the heuristic's instruments on reg: counters
// core.solves and core.infeasible, histogram core.problem_jobs, the
// warm-start counters core.warmstart.repairs / core.warmstart.repair_fail
// (Repair attempts and fallbacks), and the probe-cache counters
// core.cache.hits / core.cache.misses plus the core.cache.hit_rate gauge
// (all zero while Cache is nil).
func (h *Heuristic) AttachMetrics(reg *telemetry.Registry) {
	h.solves = reg.Counter("core.solves")
	h.infeasible = reg.Counter("core.infeasible")
	h.problemJobs = reg.Histogram("core.problem_jobs", telemetry.CountBuckets)
	h.repairs = reg.Counter("core.warmstart.repairs")
	h.repairFail = reg.Counter("core.warmstart.repair_fail")
	h.cacheHits = reg.Counter("core.cache.hits")
	h.cacheMiss = reg.Counter("core.cache.misses")
	h.cacheRate = reg.Gauge("core.cache.hit_rate")
}

// flushCacheStats folds the batched probe counters into the cache and the
// instruments. Cheap no-op without a cache.
func (h *Heuristic) flushCacheStats() {
	if h.Cache == nil {
		return
	}
	h.Cache.AddStats(h.hitsDelta, h.missDelta)
	h.cacheHits.Add(h.hitsDelta)
	h.cacheMiss.Add(h.missDelta)
	h.hitsDelta, h.missDelta = 0, 0
	h.cacheRate.Set(h.Cache.Stats().HitRate())
}

// AttachProvenance installs the decision-provenance recorder
// (telemetry.ProvenanceAware). While attached, Solve records one
// CandidateVerdict per (job, resource) consideration — with the tightest
// slack and broken deadline of failed EDF probes — and one PickStep per
// max-regret placement.
func (h *Heuristic) AttachProvenance(rec *telemetry.ProvRecorder) { h.prov = rec }

// growCommon sizes the arena pieces shared by the plain and indexed
// paths: job-indexed scratch, per-resource capacities and entry lists.
func (h *Heuristic) growCommon(m, n int) {
	if cap(h.mapping) < m {
		h.mapping = make([]int, m)
		h.feasCount = make([]int, m)
		h.best = make([]float64, m)
		h.second = make([]float64, m)
		h.unassigned = make([]int, 0, m)
	}
	if cap(h.capacity) < n {
		h.capacity = make([]float64, n)
		h.pickSet = make([]int, 0, n)
	}
	if len(h.lists) < n {
		h.lists = append(h.lists, make([]sched.EntryList, n-len(h.lists))...)
	}
}

// grow sizes the arena for m jobs on n resources, reusing prior capacity.
// The m×n matrices are the plain path's; the indexed path (indexed.go)
// deliberately never materialises them.
func (h *Heuristic) grow(m, n int) {
	h.growCommon(m, n)
	if cap(h.cpm) < m*n {
		h.cpm = make([]float64, m*n)
		h.des = make([]float64, m*n)
		h.feas = make([]bool, m*n)
	}
}

// Solve runs Algorithm 1 on p. On large platforms the candidate scan
// runs through the per-type resource index (indexed.go) instead of the
// materialised m×n matrices; the decision is identical either way.
func (h *Heuristic) Solve(p *sched.Problem) Decision {
	h.solves.Inc()
	h.problemJobs.Observe(float64(len(p.Jobs)))
	h.Cache.Advance()
	if p.Platform.Len() >= indexedMinResources && !h.prov.Enabled() && !h.noIndex {
		return h.solveIndexed(p)
	}
	jobs := p.Jobs
	m, n := len(jobs), p.Platform.Len()
	h.p, h.n = p, n
	h.grow(m, n)

	mapping := h.mapping[:m]
	for i := range mapping {
		mapping[i] = sched.Unmapped
	}

	// Per-resource remaining capacity K̄_i and the entries mapped so far
	// (for the schedulability probes), kept in FeasibleSorted service order.
	window := p.Window()
	capacity := h.capacity[:n]
	for i := range capacity {
		capacity[i] = window
		h.lists[i].Reset()
		if h.Cache != nil {
			h.lists[i].EnableFingerprint(p.Time)
		}
	}

	// Desirability f_{j,i} = ep + em + M·(cpm > t_left); +Inf when the
	// type cannot run on i (line 6 of Algorithm 1). cpm, epm and t_left
	// are invariant over one solve, so the matrix is evaluated once and
	// serves both the max-regret loop and the placement loop.
	cpm := h.cpm[:m*n]
	des := h.des[:m*n]
	for ji, j := range jobs {
		tl := j.TimeLeft(p.Time)
		base := ji * n
		for r := 0; r < n; r++ {
			c := j.CPM(r, p.Policy)
			cpm[base+r] = c
			if c == task.NotExecutable {
				des[base+r] = math.Inf(1)
				continue
			}
			e := j.EPM(r, p.Policy)
			if c > tl+sched.Eps {
				e += bigM
			}
			des[base+r] = e
		}
	}

	// Pinned jobs are not free decisions: pre-assign them so the heuristic
	// plans around the work it cannot move.
	unassigned := h.unassigned[:0]
	for idx, j := range jobs {
		if j.Fixed || j.Pinned(p.Platform) {
			h.assign(idx, j.Resource)
			continue
		}
		unassigned = append(unassigned, idx)
	}
	h.unassigned = unassigned

	// Seed F_j, best/second desirability and thereby the regrets. From
	// here the caches are maintained incrementally: an assignment changes
	// only one resource's capacity, so only that column can evict members.
	for _, ji := range unassigned {
		h.refresh(ji)
	}

	for len(unassigned) > 0 {
		// Select the next job: max regret d* (lines 8-20), or first in
		// index order for the greedy ablation.
		pick := -1
		if h.Greedy {
			pick = 0
			if h.feasCount[unassigned[0]] == 0 {
				return h.fail(mapping, unassigned[0])
			}
		} else {
			dStar := math.Inf(-1)
			for u, ji := range unassigned {
				if h.feasCount[ji] == 0 {
					// Line 22: no solution.
					return h.fail(mapping, ji)
				}
				d := h.second[ji] - h.best[ji] // +Inf when |F_j| == 1 (line 14)
				if d > dStar {
					dStar = d
					pick = u
				}
			}
		}

		jobIdx := unassigned[pick]
		unassigned = append(unassigned[:pick], unassigned[pick+1:]...)

		// Map j* to the most desirable schedulable resource (lines 24-34).
		base := jobIdx * n
		ps := h.pickSet[:0]
		for r := 0; r < n; r++ {
			if h.feas[base+r] {
				ps = append(ps, r)
			}
		}
		recording := h.prov.Enabled()
		placed := false
		for len(ps) > 0 {
			bi, bf := -1, math.Inf(1)
			for k, r := range ps {
				if f := des[base+r]; f < bf {
					bf, bi = f, k
				}
			}
			r := ps[bi]
			// Trial-insert the candidate at its service position; on
			// success the entry is already final, on failure it is backed
			// out and the next resource tried.
			pos := h.insertEntry(jobIdx, r)
			preempt := p.Platform.Resource(r).Preemptable()
			// Recording explains the probe: same verdict, plus the
			// tightest slack and the deadline that broke.
			var fv sched.FeasVerdict
			var sink *sched.FeasVerdict
			if recording {
				sink = &fv
			}
			ok := h.lists[r].Feasible(preempt, p.Time, &h.edf, h.Cache, &h.hitsDelta, &h.missDelta, sink)
			if recording {
				cv := telemetry.CandidateVerdict{
					Job: jobs[jobIdx].ID, Res: r, Des: bf,
					Slack: fv.Slack, Preempt: preempt, EDFPath: fv.EDFPath,
				}
				if ok {
					cv.Verdict = telemetry.VerdictChosen
				} else {
					cv.Verdict = telemetry.VerdictEDFInfeasible
					cv.Deadline = fv.BreachDeadline
				}
				h.prov.Candidate(cv)
			}
			if ok {
				mapping[jobIdx] = r
				capacity[r] -= cpm[base+r]
				h.invalidateColumn(r, unassigned)
				if recording {
					regret := h.second[jobIdx] - h.best[jobIdx]
					h.prov.Pick(jobs[jobIdx].ID, regret, r)
					for _, nr := range ps {
						if nr == r {
							continue
						}
						h.prov.Candidate(telemetry.CandidateVerdict{
							Job: jobs[jobIdx].ID, Res: nr,
							Verdict: telemetry.VerdictNotTried, Des: des[base+nr],
						})
					}
				}
				placed = true
				break
			}
			h.lists[r].Remove(p.Time, pos)
			ps = append(ps[:bi], ps[bi+1:]...)
		}
		if !placed {
			// Lines 31-32: no more resources.
			return h.fail(mapping, jobIdx)
		}
	}

	h.flushCacheStats()
	out := append([]int(nil), mapping...)
	return Decision{Mapping: out, Feasible: true, Energy: p.Energy(out)}
}

// assign books job jobIdx onto resource r: mapping, capacity, entry list.
// Used for the pinned pre-assignments; free jobs are booked inline by the
// placement loop, whose trial insert already placed the entry.
func (h *Heuristic) assign(jobIdx, r int) {
	h.mapping[jobIdx] = r
	h.capacity[r] -= h.cpm[jobIdx*h.n+r]
	h.insertEntry(jobIdx, r)
}

// insertEntry places job jobIdx's feasibility entry for resource r into
// the resource's sorted list and returns its position.
func (h *Heuristic) insertEntry(jobIdx, r int) int {
	return h.insertEntryC(jobIdx, r, h.cpm[jobIdx*h.n+r])
}

// insertEntryC is insertEntry with the cpm value supplied by the caller
// — the indexed path computes cpm on demand instead of reading the
// matrix.
func (h *Heuristic) insertEntryC(jobIdx, r int, c float64) int {
	j := h.p.Jobs[jobIdx]
	return h.lists[r].Insert(h.p.Time, sched.Entry{
		ReadyAt:     math.Max(j.Arrival, h.p.Time),
		Deadline:    j.AbsDeadline,
		Rem:         c,
		PinnedFirst: j.Pinned(h.p.Platform) && j.Resource == r,
	})
}

// refresh recomputes job ji's feasible set F_j — resources whose remaining
// capacity fits the job (line 10) — and its cached best/second
// desirabilities from the current capacities.
func (h *Heuristic) refresh(ji int) {
	base := ji * h.n
	cnt := 0
	b, s := math.Inf(1), math.Inf(1)
	for r := 0; r < h.n; r++ {
		c := h.cpm[base+r]
		ok := c != task.NotExecutable && c <= h.capacity[r]+sched.Eps
		h.feas[base+r] = ok
		if !ok {
			continue
		}
		cnt++
		if f := h.des[base+r]; f < b {
			b, s = f, b
		} else if f < s {
			s = f
		}
	}
	h.feasCount[ji] = cnt
	h.best[ji] = b
	h.second[ji] = s
}

// invalidateColumn re-evaluates resource r's membership for every job in
// unassigned after r's capacity shrank. Capacities only ever decrease, so
// membership can only be lost; jobs whose F_j kept r are untouched and
// their cached regrets stay valid.
func (h *Heuristic) invalidateColumn(r int, unassigned []int) {
	for _, ji := range unassigned {
		if h.feas[ji*h.n+r] && h.cpm[ji*h.n+r] > h.capacity[r]+sched.Eps {
			h.refresh(ji)
		}
	}
}

// fail returns the infeasible decision over a copy of the partial mapping.
// failJob is the job that killed the solve; under provenance its remaining
// candidate verdicts are recorded so every rejection explains the full
// resource picture for the job that could not be placed.
func (h *Heuristic) fail(mapping []int, failJob int) Decision {
	h.infeasible.Inc()
	h.flushCacheStats()
	if h.prov.Enabled() {
		h.recordExcluded(failJob)
	}
	return Decision{Mapping: append([]int(nil), mapping...), Feasible: false}
}

// recordExcluded records why each resource outside job ji's feasible set
// was never probed: the type cannot run there, or the remaining window
// capacity no longer fits. Resources still in the set were (or are about to
// be counted as) probed by the placement loop and are skipped here.
func (h *Heuristic) recordExcluded(ji int) {
	base := ji * h.n
	jobID := h.p.Jobs[ji].ID
	for r := 0; r < h.n; r++ {
		if h.feas[base+r] {
			continue
		}
		cv := telemetry.CandidateVerdict{Job: jobID, Res: r}
		if h.cpm[base+r] == task.NotExecutable {
			cv.Verdict = telemetry.VerdictNotExecutable
		} else {
			cv.Verdict = telemetry.VerdictNoCapacity
			cv.Des = h.des[base+r]
		}
		h.prov.Candidate(cv)
	}
}

// Admit runs the Sec 4.1 admission protocol: solve with the predicted
// job(s) included; on failure, drop predicted jobs one at a time —
// farthest forecast horizon first, since distant forecasts are both least
// certain and least binding — and re-solve, finally attempting the plain
// no-prediction problem. The returned mapping always covers p.Jobs
// (dropped predicted jobs map to sched.Unmapped); admitted reports whether
// the arriving task is accepted. With the paper's single-step prediction
// this reduces exactly to Sec 4.1's with/without fallback.
//
// A FallibleSolver failure is mapped to a rejection; callers that need
// the cause (the simulator) use AdmitChecked instead.
func Admit(s Solver, p *sched.Problem) (d Decision, admitted bool) {
	d, admitted, err := AdmitChecked(s, p)
	if err != nil {
		return rejectAll(p), false
	}
	return d, admitted
}

// inflate lifts a sub-problem decision back onto the original problem's
// job order; jobs dropped from the sub-problem become Unmapped.
func inflate(p, cur *sched.Problem, d Decision) Decision {
	if len(cur.Jobs) == len(p.Jobs) {
		return d
	}
	byJob := make(map[*sched.Job]int, len(cur.Jobs))
	for i, j := range cur.Jobs {
		byJob[j] = d.Mapping[i]
	}
	full := make([]int, len(p.Jobs))
	for i, j := range p.Jobs {
		if r, ok := byJob[j]; ok {
			full[i] = r
		} else {
			full[i] = sched.Unmapped
		}
	}
	return Decision{Mapping: full, Feasible: true, Energy: d.Energy}
}
