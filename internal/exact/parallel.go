package exact

import (
	"math"
	"sync"
	"sync/atomic"
	"time"

	"predrm/internal/core"
	"predrm/internal/sched"
)

// Parallel branch and bound.
//
// The root of the depth-first tree is split into independent subtree tasks
// — every feasible, unpruned prefix of the branching order down to a depth
// where the frontier is comfortably wider than the worker count — and the
// tasks are searched by a bounded pool of goroutines sharing one atomic
// incumbent. Tasks are numbered in depth-first (lexicographic) order; that
// index induces a total order on leaves,
//
//	a beats b  iff  a.e < b.e - Eps, or |a.e - b.e| <= Eps and a
//	                precedes b (seed first, then lower task index,
//	                then first-found within a task),
//
// which is exactly the order in which the serial search improves its
// incumbent. Workers prune with the incumbent asymmetrically: against the
// seed or an incumbent from a task at or before their own they prune ties
// (lb >= inc.e - Eps, the serial rule), while against an incumbent from a
// later task they only prune strictly worse subtrees (lb > inc.e + Eps),
// because a leaf of theirs tying that value would precede it in the total
// order and must be found. The surviving incumbent is therefore the
// total-order minimum regardless of worker interleaving, which makes a
// completed parallel solve bit-identical to the serial one — the energy
// sums are even the same float additions in the same depth order. DESIGN.md
// §7 carries the full argument; truncated solves remain anytime-sound but,
// like any budget-cut search, depend on where the budget landed.

// tasksPerWorker oversizes the task frontier relative to the pool so the
// tail imbalance of uneven subtrees is amortised by work stealing from the
// shared cursor.
const tasksPerWorker = 4

// nodeBatch is how many nodes a worker expands between flushes into the
// shared counter; the shared limit is enforced with at most this much
// per-worker slack.
const nodeBatch = 64

// incumbent is an immutable snapshot of the best known solution, published
// through an atomic pointer. seed marks the heuristic warm start, which
// wins every tie; task orders worker leaves.
type incumbent struct {
	e       float64
	seed    bool
	task    int
	mapping []int // nil for the seed (Optimal.bestMap already holds it)
}

// subtask is one root subtree: a prefix of branch choices (indices into
// resOrder per depth) plus the energy accumulated along it.
type subtask struct {
	choices []int
	energy  float64
}

// parWorker is one search goroutine's private scratch, persistent across
// solves.
type parWorker struct {
	lists   []sched.EntryList
	probe   sched.Probe // Cache shared with the serial path
	mapping []int

	// Batched accounting: local counts flushed into the shared atomics
	// every nodeBatch nodes (seen caches the last shared total observed).
	local    int64
	seen     int64
	wallTick int64

	warmCuts int
}

// parSearch is the shared coordination state of one parallel solve.
type parSearch struct {
	inc   atomic.Pointer[incumbent]
	incMu sync.Mutex // serialises leaf offers; prune reads stay lock-free

	sharedNodes atomic.Int64
	next        atomic.Int64 // task-claim cursor
	stop        atomic.Bool  // node/wall budget exhausted
	wallHit     atomic.Bool

	workers []*parWorker
	prefix  []int // split-time scratch: insert positions of the applied prefix
}

// splitRoot expands the root frontier level by level — every task at depth
// d is replaced by its feasible, unpruned children at depth d+1, children
// enumerated in resource order — until at least target tasks exist or one
// undecided depth remains. Expanding whole levels in task order keeps the
// frontier in depth-first (lexicographic) order, which is what the task
// index ordering relies on. Pruning here uses only the heuristic seed
// bound, fixed before any worker runs, so the task set is deterministic.
func (o *Optimal) splitRoot(target int, pinnedEnergy float64) []subtask {
	ps := &o.par
	cur := []subtask{{energy: pinnedEnergy}}
	for depth := 0; depth < len(o.order)-1 && len(cur) < target; depth++ {
		next := make([]subtask, 0, 2*len(cur))
		for _, t := range cur {
			// Re-apply this task's prefix to the shared lists; positions are
			// recorded so the inserts unwind LIFO like the serial search.
			pos := ps.prefix[:0]
			for d, ri := range t.choices {
				r := o.resOrder[d][ri]
				pos = append(pos, o.lists[r].Insert(o.p.Time, o.cand[d][ri]))
			}
			for ri, r := range o.resOrder[depth] {
				if o.nodes >= o.limit {
					break
				}
				o.nodes++
				e := t.energy + o.candE[depth][ri]
				if e+o.sufMinE[depth+1] >= o.bestE-sched.Eps {
					continue
				}
				cpos := o.lists[r].Insert(o.p.Time, o.cand[depth][ri])
				if o.feasible(r) {
					choices := make([]int, len(t.choices)+1)
					copy(choices, t.choices)
					choices[len(t.choices)] = ri
					next = append(next, subtask{choices: choices, energy: e})
				}
				o.lists[r].Remove(o.p.Time, cpos)
			}
			for d := len(pos) - 1; d >= 0; d-- {
				o.lists[o.resOrder[d][t.choices[d]]].Remove(o.p.Time, pos[d])
			}
			ps.prefix = pos[:0]
		}
		cur = next
	}
	return cur
}

// solveParallel runs the parallel search. It returns the task and worker
// counts; workers == 0 means the root was too narrow to split and the
// caller should fall back to the serial search.
func (o *Optimal) solveParallel(h core.Decision, pinnedEnergy float64) (tasks, workers int) {
	ps := &o.par
	subtasks := o.splitRoot(o.Workers*tasksPerWorker, pinnedEnergy)
	if len(subtasks) < 2 || o.nodes >= o.limit {
		return 0, 0
	}
	workers = o.Workers
	if workers > len(subtasks) {
		workers = len(subtasks)
	}

	ps.sharedNodes.Store(0)
	ps.next.Store(0)
	ps.stop.Store(false)
	ps.wallHit.Store(false)
	if h.Feasible {
		ps.inc.Store(&incumbent{e: h.Energy, seed: true, task: -1})
	} else {
		ps.inc.Store(nil)
	}
	ps.ensureWorkers(workers, o.p.Platform.Len(), len(o.p.Jobs))

	remaining := int64(o.limit - o.nodes)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		ps.workers[i].probe.Cache = o.probe.Cache
		go o.runWorker(ps.workers[i], subtasks, remaining, &wg)
	}
	wg.Wait()

	o.nodes += int(ps.sharedNodes.Load())
	if ps.wallHit.Load() {
		o.wallHit = true
	}
	for i := 0; i < workers; i++ {
		w := ps.workers[i]
		o.probe.Hits += w.probe.Hits
		o.probe.Misses += w.probe.Misses
		o.warmCuts += w.warmCuts
		w.probe.Hits, w.probe.Misses, w.warmCuts = 0, 0, 0
	}
	if inc := ps.inc.Load(); inc != nil && !inc.seed {
		o.found = true
		o.bestE = inc.e
		o.bestMap = append(o.bestMap[:0], inc.mapping...)
	}
	return len(subtasks), workers
}

// ensureWorkers sizes the persistent worker pool for this solve.
func (ps *parSearch) ensureWorkers(n, resources, jobs int) {
	for len(ps.workers) < n {
		ps.workers = append(ps.workers, &parWorker{})
	}
	for i := 0; i < n; i++ {
		w := ps.workers[i]
		if len(w.lists) < resources {
			w.lists = append(w.lists, make([]sched.EntryList, resources-len(w.lists))...)
		}
		if cap(w.mapping) < jobs {
			w.mapping = make([]int, jobs)
		}
		w.mapping = w.mapping[:jobs]
	}
}

// runWorker claims tasks from the shared cursor until they run out or the
// budget stops the search. Per task it snapshots the pinned-only base
// state, replays the task prefix, and dives.
func (o *Optimal) runWorker(w *parWorker, tasks []subtask, limit int64, wg *sync.WaitGroup) {
	defer wg.Done()
	ps := &o.par
	n := o.p.Platform.Len()
	for {
		t := int(ps.next.Add(1)) - 1
		if t >= len(tasks) || ps.stop.Load() {
			break
		}
		for r := 0; r < n; r++ {
			w.lists[r].CopyFrom(&o.lists[r])
		}
		copy(w.mapping, o.mapping)
		task := tasks[t]
		for d, ri := range task.choices {
			r := o.resOrder[d][ri]
			w.lists[r].Insert(o.p.Time, o.cand[d][ri])
			w.mapping[o.order[d]] = r
		}
		o.wdfs(w, t, len(task.choices), task.energy, limit)
	}
	// Flush the residual node count so Solve's total is exact.
	if w.local > 0 {
		ps.sharedNodes.Add(w.local)
		w.local = 0
	}
}

// countNode performs the batched node accounting for one expansion. It
// returns false when the shared node limit or the wall budget is hit, at
// which point the whole search stops.
func (w *parWorker) countNode(o *Optimal, limit int64) bool {
	ps := &o.par
	w.local++
	w.wallTick++
	if o.budget.Wall > 0 && w.wallTick&wallCheckMask == 0 &&
		time.Since(o.wallStart) > o.budget.Wall {
		ps.wallHit.Store(true)
		ps.stop.Store(true)
		return false
	}
	if w.local >= nodeBatch || w.seen+w.local >= limit {
		w.seen = ps.sharedNodes.Add(w.local)
		w.local = 0
		if w.seen >= limit {
			ps.stop.Store(true)
			return false
		}
	}
	return true
}

// pruneBound decides whether a subtree with optimistic completion lb can be
// cut against the current incumbent, from the perspective of task myTask.
// Ties lose against the seed and against tasks at or before mine (the
// serial rule); against a later task only a strictly worse subtree may go,
// since a tying leaf of mine would precede that incumbent in the total
// order.
func pruneBound(inc *incumbent, lb float64, myTask int) bool {
	if inc == nil {
		return false
	}
	if inc.seed || inc.task <= myTask {
		return lb >= inc.e-sched.Eps
	}
	return lb > inc.e+sched.Eps
}

// offer proposes a completed leaf. Under the mutex the total order is
// re-checked against the current incumbent, so concurrent offers serialise
// into exactly the order-independent minimum.
func (ps *parSearch) offer(e float64, myTask int, mapping []int) {
	ps.incMu.Lock()
	cur := ps.inc.Load()
	if cur == nil || e < cur.e-sched.Eps ||
		(math.Abs(e-cur.e) <= sched.Eps && !cur.seed && cur.task > myTask) {
		ps.inc.Store(&incumbent{e: e, task: myTask, mapping: append([]int(nil), mapping...)})
	}
	ps.incMu.Unlock()
}

// wdfs is the worker-side depth-first search: the serial dfs with the
// shared incumbent, shared node accounting, and per-worker scratch.
func (o *Optimal) wdfs(w *parWorker, task, depth int, energy float64, limit int64) {
	ps := &o.par
	if ps.stop.Load() || !w.countNode(o, limit) {
		return
	}
	lb := energy + o.sufMinE[depth]
	if pruneBound(ps.inc.Load(), lb, task) {
		return
	}
	// Warm bound (see prepareWarmBound): read-only during the search, so
	// workers share it lock-free; exclusive, so no potential total-order
	// minimum is ever cut. Deliberately absent from splitRoot — the task
	// set, and with it the task numbering the determinism argument orders
	// leaves by, stays identical to a cold solve.
	if lb > o.warmBound+sched.Eps {
		w.warmCuts++
		return
	}
	if depth == len(o.order) {
		ps.offer(energy, task, w.mapping)
		return
	}
	jobIdx := o.order[depth]
	for ri, r := range o.resOrder[depth] {
		pos := w.lists[r].Insert(o.p.Time, o.cand[depth][ri])
		if feasibleList(o.p, &w.lists[r], r, &w.probe) {
			w.mapping[jobIdx] = r
			o.wdfs(w, task, depth+1, energy+o.candE[depth][ri], limit)
			w.mapping[jobIdx] = sched.Unmapped
		}
		w.lists[r].Remove(o.p.Time, pos)
	}
}
