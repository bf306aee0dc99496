// Package exact provides the optimal reference resource manager.
//
// The paper evaluates its heuristic against a MILP (Sec 4.2) whose only
// free decisions are the mapping variables x_{j,i}; given a mapping, the
// schedule is EDF-determined and the objective is a sum of per-assignment
// energies. Package exact therefore searches the mapping space directly
// with branch and bound: depth-first over jobs, resources tried in
// increasing-energy order, partial assignments pruned by per-resource EDF
// infeasibility (adding work to a resource can never repair it) and by an
// energy lower bound against the incumbent — on hard solves one that also
// prices each resource's deadline-bounded capacity. The search is seeded with
// Algorithm 1's solution, so the result is never worse than the heuristic
// and equals the MILP optimum whenever the node budget is not exhausted.
//
// The literal MILP formulation, lowered onto this repository's own
// simplex/branch-and-bound stack, lives in internal/milpform and is
// cross-validated against this package.
package exact

import (
	"cmp"
	"math"
	"slices"
	"time"

	"predrm/internal/core"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

// DefaultNodeLimit bounds the branch-and-bound tree per solve. Typical
// activations explore well under a thousand nodes; the limit only guards
// pathological overload states, where the solver degrades gracefully into
// an anytime optimiser that still dominates the heuristic.
const DefaultNodeLimit = 300000

// Stats reports what the last Solve did.
type Stats struct {
	// Nodes is the number of branch-and-bound nodes expanded. The count
	// is exact and never exceeds the node limit, so a node budget stops
	// the search at the same node on every run. A child that the priced
	// bound cuts before its EDF probe is not expanded and not counted.
	Nodes int
	// Truncated reports whether the node budget ran out before the search
	// space was exhausted; if false the result is the exact optimum.
	Truncated bool
	// WarmSeeded reports whether the previous activation's mapping was
	// repaired into a feasible solution of this problem and installed as
	// the warm-start pruning bound (WarmStart field).
	WarmSeeded bool
	// WarmCuts counts subtrees cut by the warm-start bound alone — the
	// incumbent bound had not pruned them.
	WarmCuts int
}

// Optimal is the exact mapping solver. The zero value is ready to use.
//
// Its lower bound is the larger of two: every free job on its cheapest
// resource, and — on a solve that has expanded 256 nodes — the same with
// each resource's capacity up to every free-job deadline priced in by
// Lagrangian multipliers (DESIGN.md §7.3). Both are valid, so the bound
// only decides how many nodes a solve takes, never what it returns.
//
// An Optimal is not safe for concurrent use: it keeps per-solve state,
// and Solve must be called from one goroutine at a time. Solve runs its
// depth-first search on the caller's goroutine and never starts one of
// its own, so a run's decisions, node counts and budget cut points are
// reproducible (the tie-break rule is in DESIGN.md §7).
type Optimal struct {
	// NodeLimit overrides DefaultNodeLimit when positive.
	NodeLimit int
	// CacheSlots sizes the cross-activation feasibility cache: 0 selects
	// sched.DefaultFeasCacheSlots, negative disables the cache. The cache
	// memoises the probes that need the EDF simulation — a resource list
	// holding a predicted or future release; the others are cheaper as
	// the cumulative scan — keyed by a canonical fingerprint of the entry
	// list, and persists across Solve calls, so consecutive RM activations
	// — which share almost all of their admitted state — reuse each
	// other's verdicts.
	CacheSlots int
	// WarmStart remembers each solve's mapping and, on the next solve,
	// repairs it into a feasible solution of the new problem (surviving
	// jobs matched by pointer, see sched.WarmState) whose energy becomes
	// an additional pruning bound: subtrees whose optimistic completion is
	// strictly worse than the repaired solution are cut before the search
	// finds its own incumbent there. The bound is exclusive and never
	// returnable, so a completed solve stays bit-identical to a cold start
	// (DESIGN.md §10); only the node count — and therefore where a node or
	// wall budget truncates — can differ.
	WarmStart bool
	// LastStats describes the most recent Solve call.
	LastStats Stats

	// budget is the per-activation bound installed by ApplyBudget
	// (core.BudgetAware); its node count tightens NodeLimit, its wall
	// limit is checked every wallCheckMask+1 nodes during the search.
	budget    core.Budget
	wallStart time.Time
	wallHit   bool

	// Telemetry instruments (nil-safe no-ops until AttachMetrics).
	mSolves, mTruncated, mInfeasible *telemetry.Counter
	mNodes                           *telemetry.Histogram
	cacheCounters                    core.CacheCounters
	mWarmAttempts, mWarmSeeded       *telemetry.Counter
	mWarmFail, mWarmCuts             *telemetry.Counter

	// seeder warms the incumbent with Algorithm 1; reusing one instance
	// keeps its scratch arena alive across solves.
	seeder core.Heuristic

	// prov, when attached, receives one BBStats record per solve (the
	// seeder contributes its own candidate/pick records).
	prov *telemetry.ProvRecorder

	// Scratch state for the current solve. Per-resource entry lists are
	// kept in FeasibleSorted service order with future-release counts
	// (sched.EntryList), so most feasibility probes are allocation-free
	// cumulative scans. The remaining slices are reused across solves and
	// merely resliced.
	p        *sched.Problem
	order    []int // free job indices in branching order
	lists    []sched.EntryList
	mapping  []int
	free     []int
	bestMap  []int
	bestE    float64
	found    bool
	nodes    int
	limit    int
	pinnedE  float64   // energy of the pinned and fixed jobs
	minE     []float64 // per free-job minimum EPM (lower-bound term)
	sufMinE  []float64 // suffix sums of minE over the branching order
	resOrder [][]int   // per free job, resources sorted by EPM
	// cand and candE cache the Entry and energy of assigning the job at
	// each branching depth to resOrder[depth][k]; they are invariant
	// during the search.
	cand  [][]sched.Entry
	candE [][]float64

	// Capacity pricing (price, DESIGN.md §7.3): the node count at which
	// the current solve prices, whether it has, and the priced bound's
	// terms — per-depth reweighted candidate costs candL (parallel to
	// candE), suffix sums of their per-depth minima, the constant lagK
	// (capacity term plus safety margin) and the priced energy of the
	// current path at each depth. The multiplier scratch lives in lag.
	priceAt int
	priced  bool
	candL   [][]float64
	sufLag  []float64
	pathLag []float64
	lagK    float64
	lag     lagScratch

	// Warm-start state (WarmStart field): the previous activation's
	// recorded mapping, the current solve's pruning bound (+Inf when
	// absent; read-only during a search), and its bound-cut count.
	warm       sched.WarmState
	warmBound  float64
	warmSeeded bool
	warmCuts   int

	// The probe context: the EDF scratch, the cross-activation
	// feasibility cache (see CacheSlots) and the batched cache counts,
	// flushed into cacheCounters per Solve.
	probe sched.Probe
}

// feasible checks resource res's current entry list, going through the
// cache when enabled (sched.EntryList.Feasible).
func (o *Optimal) feasible(res int) bool {
	return o.lists[res].Feasible(o.p.Platform.Resource(res).Preemptable(), o.p.Time, &o.probe, nil)
}

var _ core.Solver = (*Optimal)(nil)
var _ core.BudgetAware = (*Optimal)(nil)
var _ telemetry.Instrumentable = (*Optimal)(nil)
var _ telemetry.ProvenanceAware = (*Optimal)(nil)

// AttachProvenance installs the decision-provenance recorder
// (telemetry.ProvenanceAware) and forwards it to the Algorithm 1 seeder,
// whose candidate verdicts and regret picks describe the incumbent seed.
func (o *Optimal) AttachProvenance(rec *telemetry.ProvRecorder) {
	o.prov = rec
	o.seeder.AttachProvenance(rec)
}

// recordBB appends this solve's branch-and-bound statistics to the
// provenance recorder. Must run before the cache counters' Flush, which
// zeroes the batched cache probe counts the record reports.
func (o *Optimal) recordBB() {
	if !o.prov.Enabled() {
		return
	}
	b := telemetry.BBStats{
		Nodes:       o.LastStats.Nodes,
		Truncated:   o.LastStats.Truncated,
		CacheHits:   o.probe.Hits,
		CacheMisses: o.probe.Misses,
	}
	if o.found {
		b.Incumbent = o.bestE
	}
	o.prov.BB(b)
}

// wallCheckMask throttles wall-clock budget checks to every 512 nodes: a
// time.Now call per node would dominate the ~100ns node expansion.
const wallCheckMask = 511

// ApplyBudget installs the per-activation budget for subsequent Solves
// (core.BudgetAware). A node budget tightens NodeLimit; a wall budget
// deadline is polled during the search, which makes results
// timing-dependent — prefer node budgets for reproducible runs.
func (o *Optimal) ApplyBudget(b core.Budget) { o.budget = b }

// BudgetUsed reports the most recent Solve's consumption
// (core.BudgetAware). Exhausted mirrors LastStats.Truncated: the search
// was cut short, so the result is the anytime incumbent — still never
// worse than the heuristic seed when one exists.
func (o *Optimal) BudgetUsed() core.BudgetUse {
	return core.BudgetUse{Nodes: o.LastStats.Nodes, Exhausted: o.LastStats.Truncated}
}

// AttachMetrics registers the solver's instruments on reg: counters
// exact.solves, exact.truncated, and exact.infeasible, plus the histogram
// exact.nodes (branch-and-bound nodes per solve). The pruning cache adds
// exact.cache.hits / exact.cache.misses / exact.cache.evictions. Warm
// starting adds exact.warmstart.attempts / .seeded (repairs that produced
// a bound — the seed-feasible rate is their ratio) / .repair_fail /
// .bound_cuts (subtrees cut by the warm bound alone, a nodes-saved proxy).
func (o *Optimal) AttachMetrics(reg *telemetry.Registry) {
	o.mSolves = reg.Counter("exact.solves")
	o.mTruncated = reg.Counter("exact.truncated")
	o.mInfeasible = reg.Counter("exact.infeasible")
	o.mNodes = reg.Histogram("exact.nodes", telemetry.NodeBuckets)
	o.cacheCounters = core.NewCacheCounters(reg, "exact")
	o.mWarmAttempts = reg.Counter("exact.warmstart.attempts")
	o.mWarmSeeded = reg.Counter("exact.warmstart.seeded")
	o.mWarmFail = reg.Counter("exact.warmstart.repair_fail")
	o.mWarmCuts = reg.Counter("exact.warmstart.bound_cuts")
}

// Solve returns the minimum-energy feasible mapping of p, or an infeasible
// decision, which carries no mapping, when none exists.
func (o *Optimal) Solve(p *sched.Problem) core.Decision {
	return o.solve(p, priceAfter)
}

// solve is Solve with capacity pricing starting at node priceAt
// (1 prices at the root, 0 never).
func (o *Optimal) solve(p *sched.Problem, priceAt int) core.Decision {
	o.p = p
	o.priceAt = priceAt
	o.priced = false
	o.limit = o.NodeLimit
	if o.limit <= 0 {
		o.limit = DefaultNodeLimit
	}
	if o.budget.Nodes > 0 && o.budget.Nodes < o.limit {
		o.limit = o.budget.Nodes
	}
	o.wallHit = false
	if o.budget.Wall > 0 {
		o.wallStart = time.Now()
	}
	o.nodes = 0
	o.found = false
	o.bestE = math.Inf(1)
	o.warmBound = math.Inf(1)
	o.warmSeeded = false
	o.warmCuts = 0

	if o.probe.Cache == nil && o.CacheSlots >= 0 {
		o.probe.Cache = sched.NewFeasCache(o.CacheSlots)
	}

	n := p.Platform.Len()
	m := len(p.Jobs)
	if cap(o.mapping) < m {
		o.mapping = make([]int, m)
		o.free = make([]int, 0, m)
	}
	o.mapping = o.mapping[:m]
	if len(o.lists) < n {
		o.lists = append(o.lists, make([]sched.EntryList, n-len(o.lists))...)
	}
	for i := 0; i < n; i++ {
		o.lists[i].Reset()
	}

	// Pre-assign pinned jobs and collect free ones.
	free := o.free[:0]
	pinnedEnergy := 0.0
	for idx, j := range p.Jobs {
		if j.Fixed || j.Pinned(p.Platform) {
			o.mapping[idx] = j.Resource
			o.lists[j.Resource].Insert(p.Time, o.entry(idx, j.Resource))
			pinnedEnergy += j.EPM(j.Resource, p.Policy)
			continue
		}
		o.mapping[idx] = sched.Unmapped
		free = append(free, idx)
	}
	o.free = free
	o.pinnedE = pinnedEnergy
	// Pinned-only feasibility: if the immovable work already misses
	// deadlines nothing can fix it (cannot happen after a sound admission
	// history, but guard anyway).
	for r := 0; r < n; r++ {
		if o.lists[r].Len() > 0 && !o.feasible(r) {
			o.LastStats = Stats{}
			o.mSolves.Inc()
			o.mInfeasible.Inc()
			o.recordBB()
			o.cacheCounters.Flush(&o.probe)
			return core.Decision{}
		}
	}

	// Branching order: hardest jobs first — fewest executable resources,
	// then least slack. Resource order per job: cheapest energy first so
	// the first dive is a good incumbent.
	o.prepareOrders(free)

	// Warm start: repair the previous activation's mapping into a pruning
	// bound for this one. Must follow prepareOrders (the bound is summed
	// over candE in branching order) and precede the seeder, whose Solve
	// resets the shared arena Repair borrows.
	o.prepareWarmBound(pinnedEnergy)

	// Seed the incumbent with the heuristic so exact is never worse and
	// pruning starts strong.
	h := o.seeder.Solve(p)
	if h.Feasible {
		o.found = true
		o.bestE = h.Energy
		o.bestMap = append(o.bestMap[:0], h.Mapping...)
	}

	o.dfs(0, pinnedEnergy)

	o.LastStats = Stats{
		Nodes:      o.nodes,
		Truncated:  o.nodes >= o.limit || o.wallHit,
		WarmSeeded: o.warmSeeded,
		WarmCuts:   o.warmCuts,
	}
	o.mWarmCuts.Add(int64(o.warmCuts))
	o.mSolves.Inc()
	o.mNodes.Observe(float64(o.nodes))
	if o.LastStats.Truncated {
		o.mTruncated.Inc()
	}
	o.recordBB()
	o.cacheCounters.Flush(&o.probe)
	if !o.found {
		// An infeasible solve records nothing: the previous state stays —
		// surviving jobs still match by pointer on the next activation.
		o.mInfeasible.Inc()
		return core.Decision{}
	}
	if o.WarmStart {
		o.warm.Record(p, o.bestMap)
	}
	return core.Decision{Mapping: append([]int(nil), o.bestMap...), Feasible: true, Energy: o.bestE}
}

// prepareWarmBound repairs the previous activation's recorded mapping
// onto the current problem (via the seeder's Repair engine) and installs
// its energy as the warm pruning bound. The repaired mapping itself is
// deliberately NOT installed as an incumbent: an incumbent is returnable,
// and returning it would make warm and cold solves diverge whenever the
// repair beats the heuristic seed. As a non-returnable exclusive bound it
// only removes subtrees whose every leaf is strictly worse than a known
// feasible solution — leaves that can never be the returned decision —
// which is what keeps completed solves bit-identical to cold starts
// (DESIGN.md §10).
func (o *Optimal) prepareWarmBound(pinnedEnergy float64) {
	if !o.WarmStart || !o.warm.Valid() {
		return
	}
	o.mWarmAttempts.Inc()
	mapping, _, ok := o.seeder.Repair(o.p, &o.warm)
	if !ok {
		o.mWarmFail.Inc()
		return
	}
	// Re-sum the repaired mapping's energy with the search's own float
	// additions — pinned energy plus candE terms in branching-depth order
	// — so the bound equals the repair leaf's in-search energy exactly and
	// the exclusive comparison can never cut that leaf's own path.
	u := pinnedEnergy
	for d, jobIdx := range o.order {
		r := mapping[jobIdx]
		ri := -1
		for k, rr := range o.resOrder[d] {
			if rr == r {
				ri = k
				break
			}
		}
		if ri < 0 {
			// The repair placed a job outside the branchable resource set
			// (possible for predicted jobs, whose constraint-(2) window is
			// tighter under branching than under repair): no bound.
			o.mWarmFail.Inc()
			return
		}
		u += o.candE[d][ri]
	}
	o.warmBound = u
	o.warmSeeded = true
	o.mWarmSeeded.Inc()
}

func (o *Optimal) entry(jobIdx, r int) sched.Entry {
	j := o.p.Jobs[jobIdx]
	return sched.Entry{
		ReadyAt:     math.Max(j.Arrival, o.p.Time),
		Deadline:    j.AbsDeadline,
		Rem:         j.CPM(r, o.p.Policy),
		PinnedFirst: j.Pinned(o.p.Platform) && j.Resource == r,
	}
}

// prepareOrders computes the branching structures for the free jobs,
// reusing the slices of earlier solves. The slices sorts run the same
// pdqsort and stable merge as sort.Slice and sort.SliceStable, so the
// orders are identical, without the reflective swapper.
func (o *Optimal) prepareOrders(free []int) {
	p := o.p
	n := p.Platform.Len()
	k := len(free)
	o.order = append(o.order[:0], free...)
	slices.SortStableFunc(o.order, func(a, b int) int {
		ja, jb := p.Jobs[a], p.Jobs[b]
		if c := cmp.Compare(ja.Type.NumExecutable(), jb.Type.NumExecutable()); c != 0 {
			return c
		}
		return cmp.Compare(ja.TimeLeft(p.Time), jb.TimeLeft(p.Time))
	})
	if cap(o.minE) < k {
		o.minE = make([]float64, k)
	}
	if cap(o.sufMinE) < k+1 {
		o.sufMinE = make([]float64, k+1)
	}
	o.minE = o.minE[:k]
	o.sufMinE = o.sufMinE[:k+1]
	if len(o.resOrder) < k {
		o.resOrder = append(o.resOrder, make([][]int, k-len(o.resOrder))...)
		o.cand = append(o.cand, make([][]sched.Entry, k-len(o.cand))...)
		o.candE = append(o.candE, make([][]float64, k-len(o.candE))...)
	}
	for d, jobIdx := range o.order {
		j := p.Jobs[jobIdx]
		rs := o.resOrder[d][:0]
		for r := 0; r < n; r++ {
			cpm := j.CPM(r, p.Policy)
			if cpm == task.NotExecutable {
				continue
			}
			// Constraint (2): resources where the job cannot meet its own
			// deadline are never part of a feasible mapping.
			if cpm > j.AbsDeadline-math.Max(j.Arrival, p.Time)+sched.Eps {
				continue
			}
			rs = append(rs, r)
		}
		slices.SortFunc(rs, func(a, b int) int {
			return cmp.Compare(j.EPM(a, p.Policy), j.EPM(b, p.Policy))
		})
		o.resOrder[d] = rs
		if len(rs) == 0 {
			o.minE[d] = math.Inf(1)
		} else {
			o.minE[d] = j.EPM(rs[0], p.Policy)
		}
		cand := o.cand[d][:0]
		candE := o.candE[d][:0]
		for _, r := range rs {
			cand = append(cand, o.entry(jobIdx, r))
			candE = append(candE, j.EPM(r, p.Policy))
		}
		o.cand[d] = cand
		o.candE[d] = candE
	}
	o.sufMinE[k] = 0
	for d := k - 1; d >= 0; d-- {
		o.sufMinE[d] = o.sufMinE[d+1] + o.minE[d]
	}
}

func (o *Optimal) dfs(depth int, energy float64) {
	if o.nodes >= o.limit || o.wallHit {
		return
	}
	o.nodes++
	if o.budget.Wall > 0 && o.nodes&wallCheckMask == 0 && time.Since(o.wallStart) > o.budget.Wall {
		o.wallHit = true
		return
	}
	if o.nodes == o.priceAt {
		o.price(depth)
	}
	// Bound: even the cheapest completion — priced, once the solve has
	// priced capacity — cannot beat the incumbent.
	lb := energy + o.sufMinE[depth]
	if o.priced {
		lb = max(lb, o.pathLag[depth]+o.sufLag[depth]-o.lagK)
	}
	if lb >= o.bestE-sched.Eps {
		return
	}
	// Warm bound: every leaf below is strictly worse than the repaired
	// previous-activation solution, so none can be the returned decision
	// (the bound is exclusive — see prepareWarmBound). Checked after the
	// incumbent so warmCuts counts only cuts the incumbent missed.
	if lb > o.warmBound+sched.Eps {
		o.warmCuts++
		return
	}
	if depth == len(o.order) {
		o.found = true
		o.bestE = energy
		o.bestMap = append(o.bestMap[:0], o.mapping...)
		return
	}
	jobIdx := o.order[depth]
	for ri, r := range o.resOrder[depth] {
		if o.priced {
			// The child's priced bound, checked before its probe: a child
			// it cuts costs neither an EDF probe nor a node.
			lag := o.pathLag[depth] + o.candL[depth][ri]
			if lag+o.sufLag[depth+1]-o.lagK >= o.bestE-sched.Eps {
				continue
			}
			o.pathLag[depth+1] = lag
		}
		pos := o.lists[r].Insert(o.p.Time, o.cand[depth][ri])
		if o.feasible(r) {
			o.mapping[jobIdx] = r
			o.dfs(depth+1, energy+o.candE[depth][ri])
			o.mapping[jobIdx] = sched.Unmapped
		}
		o.lists[r].Remove(o.p.Time, pos)
	}
}
