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
// the problem as read-only. Solve is called from a single goroutine at a
// time per instance and runs on that goroutine: no solver starts one of
// its own. The only concurrency inside a decision is the sharded engine's,
// which solves its shards' problems at once on separate Solver instances.
type Solver interface {
	Solve(p *sched.Problem) Decision
}

// Heuristic is the paper's Algorithm 1. The zero value is ready to use.
//
// A Heuristic keeps a reusable scratch arena (mapping, capacities,
// per-resource entry lists, the per-job candidate summaries and, on small
// platforms, the cpm/desirability matrices) that is reset — not
// reallocated — on every Solve, so the decision hot path is
// allocation-free in steady state apart from the returned
// Decision.Mapping. It is therefore not safe for concurrent use: give
// each goroutine its own instance.
type Heuristic struct {
	// Greedy disables the max-regret task ordering and assigns jobs in
	// index order instead (ablation A1). The per-resource capacity and
	// schedulability machinery is unchanged.
	Greedy bool

	// Cache, when non-nil, fronts the placement probes that run the EDF
	// simulation — a resource list holding a predicted or future release
	// — with a cross-activation feasibility cache (sched.FeasCache) keyed
	// by the entry-list fingerprints. Lists without a future release are
	// answered by the cumulative scan, which is cheaper than a table
	// lookup, and never reach the cache (sched.EntryList.Feasible); on a
	// platform without prediction the cache therefore sees no probes. A
	// cached verdict is by construction the verdict the probe would have
	// computed, so decisions are unchanged. Nil (the zero value) keeps
	// every probe direct and skips the fingerprint upkeep.
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

	// Per-solve state, valid between the top of Solve (or Repair) and its
	// return.
	p *sched.Problem
	n int // p.Platform.Len()

	// Scratch arena, grown geometrically and never shrunk. cpm and des
	// flatten the matrix source's [job][resource] matrices as job*n+r;
	// terms holds every free job's hoisted cost terms and cand its regret
	// inputs.
	mapping    []int
	capacity   []float64
	lists      []sched.EntryList
	cpm        []float64
	des        []float64
	terms      []jobTerms
	cand       []candSummary
	unassigned []int

	// pr is the EDF probe context: scratch, Cache and the per-solve batched
	// hit/miss counts (flushed into Cache and the instruments). delta is
	// the Repair scratch.
	pr    sched.Probe
	delta sched.MappingDelta

	// Index source state (indexed.go): the per-type candidate orders and
	// the shared candidate iterator.
	ord map[*task.Type][]int32
	it  candIter
}

var _ Solver = (*Heuristic)(nil)
var _ telemetry.Instrumentable = (*Heuristic)(nil)
var _ telemetry.ProvenanceAware = (*Heuristic)(nil)

// AttachMetrics registers the heuristic's instruments on reg: counters
// core.solves and core.infeasible, histogram core.problem_jobs, the
// warm-start counters core.warmstart.repairs / core.warmstart.repair_fail
// (Repair attempts and fallbacks), and the probe-cache counters
// core.cache.hits / core.cache.misses plus the core.cache.hit_rate gauge
// (all zero while Cache is nil or no probed list holds a future release).
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
	pr := &h.pr
	if pr.Cache == nil {
		return
	}
	pr.Cache.AddStats(pr.Hits, pr.Misses)
	h.cacheHits.Add(pr.Hits)
	h.cacheMiss.Add(pr.Misses)
	pr.Hits, pr.Misses = 0, 0
	h.cacheRate.Set(pr.Cache.Stats().HitRate())
}

// AttachProvenance installs the decision-provenance recorder
// (telemetry.ProvenanceAware). While attached, Solve records one
// CandidateVerdict per (job, resource) consideration — with the tightest
// slack and broken deadline of failed EDF probes — and one PickStep per
// max-regret placement.
func (h *Heuristic) AttachProvenance(rec *telemetry.ProvRecorder) { h.prov = rec }

// indexed reports the current solve's candidate source: the per-type
// index (indexed.go) on platforms of indexedMinResources or more, the
// m×n matrices below.
func (h *Heuristic) indexed() bool { return h.n >= indexedMinResources }

// reset points the arena at p, growing it if needed, and restores every
// resource's full window capacity K̄ and empty entry list (kept in
// FeasibleSorted service order for the schedulability probes). The
// per-job slices and the matrices grow to at least twice their previous
// capacity, so a run whose problems keep growing reallocates them
// O(log m) times, not once per new size.
func (h *Heuristic) reset(p *sched.Problem) {
	m, n := len(p.Jobs), p.Platform.Len()
	h.p, h.n = p, n
	h.pr.Cache = h.Cache
	if cap(h.mapping) < m {
		c := max(m, 2*cap(h.mapping))
		h.mapping = make([]int, c)
		h.terms = make([]jobTerms, c)
		h.cand = make([]candSummary, c)
		h.unassigned = make([]int, 0, c)
	}
	if cap(h.capacity) < n {
		h.capacity = make([]float64, n)
	}
	if len(h.lists) < n {
		h.lists = append(h.lists, make([]sched.EntryList, n-len(h.lists))...)
	}
	if !h.indexed() && cap(h.cpm) < m*n {
		c := max(m*n, 2*cap(h.cpm))
		h.cpm = make([]float64, c)
		h.des = make([]float64, c)
	}
	window := p.Window()
	for r := 0; r < n; r++ {
		h.capacity[r] = window
		h.lists[r].Reset()
		if h.Cache != nil {
			h.lists[r].EnableFingerprint(p.Time)
		}
	}
}

// Solve runs Algorithm 1 on p: the pinned jobs are pre-assigned, then
// place maps the free ones. The candidate source follows the platform
// size; the decision and any recorded provenance are identical on both.
func (h *Heuristic) Solve(p *sched.Problem) Decision {
	h.solves.Inc()
	h.problemJobs.Observe(float64(len(p.Jobs)))
	h.Cache.Advance()
	h.reset(p)
	mapping := h.mapping[:len(p.Jobs)]

	// Pinned jobs are not free decisions: pre-assign them so the heuristic
	// plans around the work it cannot move.
	unassigned := h.unassigned[:0]
	for idx, j := range p.Jobs {
		mapping[idx] = sched.Unmapped
		if j.Fixed || j.Pinned(p.Platform) {
			h.assign(idx, j.Resource, j.CPM(j.Resource, p.Policy))
			continue
		}
		unassigned = append(unassigned, idx)
	}

	if failJob := h.place(unassigned, h.Greedy, h.prov.Enabled()); failJob >= 0 {
		return h.fail(failJob)
	}
	h.flushCacheStats()
	out := append([]int(nil), mapping...)
	return Decision{Mapping: out, Feasible: true, Energy: p.Energy(out)}
}

// place runs Algorithm 1's lines 8-34 over the free jobs in unassigned,
// on top of whatever the caller has already booked: select the max-regret
// job (the first one for greedy), trial-insert it on its candidates in
// ascending (desirability, resource) order until an EDF probe passes, and
// book it. It returns the job that could not be placed, or -1. recording
// emits the candidate verdicts and pick steps.
//
// Only the candidate source differs between platform sizes — how a job's
// candidate summary is computed (summarise), how its candidates are
// walked (nextCand) and where a cpm is read; the loop is the same. Both
// sources read the free jobs' cost terms, hoisted here once per call.
func (h *Heuristic) place(unassigned []int, greedy, recording bool) int {
	p, n, indexed := h.p, h.n, h.indexed()
	for _, ji := range unassigned {
		j := p.Jobs[ji]
		jt := &h.terms[ji]
		*jt = newJobTerms(j, p.Time, p.Policy)
		if indexed {
			jt.ord = h.typeOrder(j.Type)
		} else {
			h.fillRow(ji)
		}
		h.summarise(ji)
	}

	for len(unassigned) > 0 {
		// Select the next job: max regret d* (lines 8-20), or first in
		// index order for the greedy ablation. An empty feasible set is
		// line 22: no solution.
		pick := 0
		if greedy {
			if h.cand[unassigned[0]].empty {
				return unassigned[0]
			}
		} else {
			dStar := math.Inf(-1)
			for u, ji := range unassigned {
				cc := &h.cand[ji]
				if cc.empty {
					return ji
				}
				// +Inf when |F_j| == 1 (line 14).
				if d := cc.secondDes - cc.bestDes; d > dStar {
					dStar, pick = d, u
				}
			}
		}
		ji := unassigned[pick]
		unassigned = append(unassigned[:pick], unassigned[pick+1:]...)

		// Map j* to the most desirable schedulable resource (lines 24-34).
		// Each candidate is trial-inserted at its service position; on
		// success the entry is already final, on failure it is backed out
		// and the next candidate tried.
		r, des, c, ok := h.nextCand(ji, -1, math.Inf(-1))
		for ; ok; r, des, c, ok = h.nextCand(ji, r, des) {
			pos := h.insertEntry(ji, r, c)
			if h.check(ji, r, des, recording) {
				break
			}
			h.lists[r].Remove(p.Time, pos)
		}
		if !ok {
			return ji // lines 31-32: no more resources
		}
		if recording {
			h.recordPlaced(ji, r, des)
		}

		// Book j* on r. The booking shrank only r's capacity, so a job's
		// summary can change only if r was its best or second candidate
		// (then r is executable for it) and it just lost r from its
		// feasible set; the cheap candidate test goes first.
		h.mapping[ji] = r
		oldCap := h.capacity[r]
		h.capacity[r] -= c
		newCap := h.capacity[r]
		for _, uj := range unassigned {
			if cc := &h.cand[uj]; cc.bestR != int32(r) && cc.secondR != int32(r) {
				continue
			}
			var cu float64
			if indexed {
				cu = h.terms[uj].cpm(r)
			} else {
				cu = h.cpm[uj*n+r]
			}
			if cu > oldCap+sched.Eps || cu <= newCap+sched.Eps {
				continue // was not a member, or still is
			}
			h.summarise(uj)
		}
	}
	return -1
}

// jobTerms are one free job's solve-invariant cost terms, hoisted once
// per place so that neither candidate source calls Job.CPM/EPM per (job,
// resource) pair. cpm and epm keep those methods' float operations and
// their order — wcet·frac + debt, then + migT — so every value is
// bit-identical (FuzzJobTermsMatchCPM).
type jobTerms struct {
	wcet, energy []float64 // the type's rows
	frac, debt   float64   // Job.Frac, Job.MigDebt
	migT, migE   float64   // the type's migration surcharge
	charge       bool      // leaving cur is a charged migration
	cur          int       // the current resource, or sched.Unmapped
	tl           float64   // t_left at the solve's time
	ord          []int32   // the type's candidate index (index source only)
}

// newJobTerms hoists j's cost terms at time t under policy pol.
func newJobTerms(j *sched.Job, t float64, pol sched.MigrationPolicy) jobTerms {
	return jobTerms{
		wcet: j.Type.WCET, energy: j.Type.Energy,
		frac: j.Frac, debt: j.MigDebt,
		migT: j.Type.MigTime, migE: j.Type.MigEnergy,
		charge: j.Resource != sched.Unmapped && (pol == sched.ChargeAlways || j.Started),
		cur:    j.Resource,
		tl:     j.TimeLeft(t),
	}
}

// executable reports whether the job's type can run on r.
func (jt *jobTerms) executable(r int) bool {
	return r >= 0 && r < len(jt.wcet) && jt.wcet[r] != task.NotExecutable
}

// cpm is Job.CPM on an executable resource r.
func (jt *jobTerms) cpm(r int) float64 {
	c := jt.wcet[r]*jt.frac + jt.debt
	if jt.charge && r != jt.cur {
		c += jt.migT
	}
	return c
}

// epm is Job.EPM on an executable resource r.
func (jt *jobTerms) epm(r int) float64 {
	e := jt.energy[r] * jt.frac
	if jt.charge && r != jt.cur {
		e += jt.migE
	}
	return e
}

// desire returns free job ji's cpm on resource r and its desirability
// f_{j,i} = ep + em + M·(cpm > t_left); +Inf when the type cannot run on r
// (line 6 of Algorithm 1).
func (h *Heuristic) desire(ji, r int) (c, f float64) {
	jt := &h.terms[ji]
	if !jt.executable(r) {
		return task.NotExecutable, math.Inf(1)
	}
	c, f = jt.cpm(r), jt.epm(r)
	if c > jt.tl+sched.Eps {
		f += bigM
	}
	return c, f
}

// fillRow evaluates job ji's row of the cpm/desirability matrices. cpm,
// epm and t_left are invariant over one solve, so each row is evaluated
// once and serves every summary and candidate walk of the job.
func (h *Heuristic) fillRow(ji int) {
	base := ji * h.n
	for r := 0; r < h.n; r++ {
		h.cpm[base+r], h.des[base+r] = h.desire(ji, r)
	}
}

// summarise recomputes job ji's candidate summary from the current
// capacities: the first two members of its feasible set F_j (line 10) in
// ascending (desirability, resource) order. On the matrix source that is
// one row scan in ascending resource id with strict <; on the index it is
// rewalk.
func (h *Heuristic) summarise(ji int) {
	if h.indexed() {
		h.rewalk(ji)
		return
	}
	base := ji * h.n
	cc := candSummary{bestR: -1, secondR: -1, bestDes: math.Inf(1), secondDes: math.Inf(1)}
	for r := 0; r < h.n; r++ {
		if h.cpm[base+r] > h.capacity[r]+sched.Eps {
			continue // not executable, or no capacity left
		}
		if f := h.des[base+r]; f < cc.bestDes {
			cc.secondR, cc.secondDes = cc.bestR, cc.bestDes
			cc.bestR, cc.bestDes = int32(r), f
		} else if f < cc.secondDes {
			cc.secondR, cc.secondDes = int32(r), f
		}
	}
	cc.empty = cc.bestR < 0
	h.cand[ji] = cc
}

// nextCand yields job ji's next feasible-set member after (r, des) in
// ascending (desirability, resource) order: resource, desirability, cpm;
// ok is false when the set is exhausted. r < 0 starts the walk. On the
// matrix source it is an arg-min over the row; on the index it steps the
// shared iterator, which keeps its own position.
func (h *Heuristic) nextCand(ji, r int, des float64) (int, float64, float64, bool) {
	if h.indexed() {
		if r < 0 {
			h.itInit(ji)
		}
		return h.itNext()
	}
	base := ji * h.n
	br, bf := -1, math.Inf(1)
	for q := 0; q < h.n; q++ {
		f := h.des[base+q]
		if h.cpm[base+q] > h.capacity[q]+sched.Eps || f < des || (f == des && q <= r) || f >= bf {
			continue
		}
		br, bf = q, f
	}
	if br < 0 {
		return 0, 0, 0, false
	}
	return br, bf, h.cpm[base+br], true
}

// assign books job ji onto resource r at cpm c: mapping, capacity, entry
// list. Used for the pre-assigned jobs; place books free jobs itself,
// since its trial insert already placed the entry.
func (h *Heuristic) assign(ji, r int, c float64) {
	h.mapping[ji] = r
	h.capacity[r] -= c
	h.insertEntry(ji, r, c)
}

// insertEntry places job ji's feasibility entry for resource r, with cpm
// c, into the resource's sorted list and returns its position.
func (h *Heuristic) insertEntry(ji, r int, c float64) int {
	j := h.p.Jobs[ji]
	return h.lists[r].Insert(h.p.Time, sched.Entry{
		ReadyAt:     math.Max(j.Arrival, h.p.Time),
		Deadline:    j.AbsDeadline,
		Rem:         c,
		PinnedFirst: j.Pinned(h.p.Platform) && j.Resource == r,
	})
}

// probe checks resource r's current entry list, through the cache when
// one is attached and the list needs the EDF simulation. A non-nil fv
// receives the explained verdict.
func (h *Heuristic) probe(r int, fv *sched.FeasVerdict) bool {
	return h.lists[r].Feasible(h.p.Platform.Resource(r).Preemptable(), h.p.Time, &h.pr, fv)
}

// check runs the EDF probe for job ji's trial entry on r. Recording
// explains the probe — the same verdict, plus the tightest slack and the
// deadline that broke — and records it as chosen or edf_infeasible.
func (h *Heuristic) check(ji, r int, des float64, recording bool) bool {
	if !recording {
		return h.probe(r, nil)
	}
	var fv sched.FeasVerdict
	ok := h.probe(r, &fv)
	cv := telemetry.CandidateVerdict{
		Job: h.p.Jobs[ji].ID, Res: r, Des: des, Verdict: telemetry.VerdictChosen,
		Slack: fv.Slack, Preempt: h.p.Platform.Resource(r).Preemptable(), EDFPath: fv.EDFPath,
	}
	if !ok {
		cv.Verdict, cv.Deadline = telemetry.VerdictEDFInfeasible, fv.BreachDeadline
	}
	h.prov.Candidate(cv)
	return ok
}

// recordPlaced records job ji's pick step onto r, before r is booked, and
// a not_tried verdict for every feasible-set member that sorts after the
// chosen (des, r), in ascending resource id.
func (h *Heuristic) recordPlaced(ji, r int, des float64) {
	cc := &h.cand[ji]
	id := h.p.Jobs[ji].ID
	h.prov.Pick(id, cc.secondDes-cc.bestDes, r)
	for q := 0; q < h.n; q++ {
		c, f := h.desire(ji, q)
		if c > h.capacity[q]+sched.Eps || f < des || (f == des && q <= r) {
			continue
		}
		h.prov.Candidate(telemetry.CandidateVerdict{
			Job: id, Res: q, Verdict: telemetry.VerdictNotTried, Des: f,
		})
	}
}

// fail returns the infeasible decision over a copy of the partial mapping.
// failJob is the job that killed the solve; under provenance its remaining
// candidate verdicts are recorded so every rejection explains the full
// resource picture for the job that could not be placed.
func (h *Heuristic) fail(failJob int) Decision {
	h.infeasible.Inc()
	h.flushCacheStats()
	if h.prov.Enabled() {
		h.recordExcluded(failJob)
	}
	return Decision{Mapping: append([]int(nil), h.mapping[:len(h.p.Jobs)]...), Feasible: false}
}

// recordExcluded records why each resource outside job ji's feasible set
// was never probed: the type cannot run there, or the remaining window
// capacity no longer fits. Resources still in the set were probed by the
// placement loop and are skipped here.
func (h *Heuristic) recordExcluded(ji int) {
	id := h.p.Jobs[ji].ID
	for r := 0; r < h.n; r++ {
		c, f := h.desire(ji, r)
		cv := telemetry.CandidateVerdict{Job: id, Res: r, Verdict: telemetry.VerdictNoCapacity, Des: f}
		switch {
		case c == task.NotExecutable:
			cv.Verdict, cv.Des = telemetry.VerdictNotExecutable, 0
		case c <= h.capacity[r]+sched.Eps:
			continue
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
// the cause (the engine) use AdmitProv instead.
func Admit(s Solver, p *sched.Problem) (d Decision, admitted bool) {
	d, admitted, err := AdmitProv(s, p, nil, nil)
	if err != nil {
		return rejectAll(p), false
	}
	return d, admitted
}
