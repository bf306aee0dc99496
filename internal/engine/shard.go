// Scale-out admission: a platform partitioned into shards, each owning
// its resources and EDF state, behind the same Driver surface as a
// single Engine.
//
// The admission problem is solved per shard: an arrival is routed by a
// cheap load/affinity pre-filter (a sched.LoadIndex over the shards,
// walked from least loaded upward to the first shard whose projected
// task set can execute the type), then admitted by that shard's own
// engine against only the shard's resources. Decision cost therefore
// scales with shard size, not platform size, and a batch epoch's
// per-shard groups are solved by the caller and as many helper
// goroutines as start in time. The price is optimality: a job is
// mapped to the best resource of its shard, not of the whole platform —
// DESIGN.md §12 develops the argument and the determinism guarantees.
//
// With one shard the engine is the engine: NewSharded returns the bare
// Engine built from the caller's Config.
package engine

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/sched"
	"predrm/internal/trace"
)

// ShardConfig parameterises the scale-out engine.
type ShardConfig struct {
	// Shards is the number of partitions; 0 and 1 both mean the bare,
	// unpartitioned Engine.
	Shards int
	// BatchWindow is the epoch length drivers should collect arrivals
	// over before calling ActivateEpoch; 0 means one-by-one admission.
	// The engine itself does not window — the field rides here so one
	// config names the whole scale-out setup (sim.RunSharded reads it).
	BatchWindow float64
	// NewSolver builds one solver per shard — engines are not safe for
	// concurrent use and neither are solvers, so shards cannot share
	// cfg.Solver. Within an epoch a shard's solver runs on whichever
	// goroutine claims the shard: the caller or one of up to
	// min(shards, GOMAXPROCS) − 1 helpers (DESIGN.md §12.1). Required
	// when Shards > 1; with one shard it supplies cfg.Solver when that is
	// nil.
	NewSolver func() core.Solver
}

// shardState is one partition's engine and routing metadata.
type shardState struct {
	eng *Engine
	sub platform.Shard
	// locals maps the shard's local request ids back to global ids, in
	// activation order (local id == index).
	locals []int
	// The current epoch's group routed here, the outcomes and error of
	// its solve, and how many outcomes reassembly has taken. Buffers are
	// reused across epochs: only the goroutine that claimed the shard
	// writes them, and the epoch waits for it before reading them.
	group []trace.Request
	outs  []Outcome
	err   error
	taken int
}

// epochClaims is one epoch's work queue: busy shards are claimed by
// index from next, and done counts the claimed solves still running.
// Each epoch gets a fresh one, because a helper that starts after every
// shard has been claimed still reads next and n, possibly after
// ActivateEpoch has returned; it reads nothing else.
type epochClaims struct {
	next atomic.Int32
	n    int32
	done sync.WaitGroup
}

// sharded drives one engine per platform shard behind the Driver
// interface. Not safe for concurrent use (like Engine); the concurrency
// inside ActivateEpoch stays behind the call, apart from helpers that
// start too late to claim a shard and exit on their own.
type sharded struct {
	cfg    Config
	shards []shardState
	loads  *sched.LoadIndex
	elig   [][]bool // [typeID][shard]
	// workers bounds the goroutines solving one epoch, the caller
	// included: min(shards, GOMAXPROCS).
	workers int
	// busy lists the current epoch's shards with a non-empty group, in
	// shard order; the claim counter indexes it.
	busy []int
	// routes maps global request id -> shard index (the local id is the
	// position in that shard's locals).
	routes []int
	res    *Result // merged result, built once by Finalize
	// probeRes backs the merged samples' Resources, reused like Engine's.
	probeRes []ResourceSample
	// accepted and rejected count admissions in global request order, up
	// to the request the next merged sample reports.
	accepted, rejected int
}

// NewSharded builds the engine for sc: with 0 or 1 shards the bare
// Engine over cfg (cfg.Solver from sc.NewSolver when nil), with more a
// partition of cfg.Platform into sc.Shards shards and one engine per
// shard. There the features whose state is inherently global — tracing,
// provenance, prediction, the overhead hook — are rejected rather than
// silently given per-shard semantics; Metrics and StateProbe are
// supported globally (a shared registry, and globally merged samples).
func NewSharded(cfg Config, sc ShardConfig) (Driver, error) {
	if sc.Shards < 0 {
		return nil, fmt.Errorf("engine: negative shard count %d", sc.Shards)
	}
	if sc.Shards <= 1 {
		if cfg.Solver == nil && sc.NewSolver != nil {
			cfg.Solver = sc.NewSolver()
		}
		eng, err := New(cfg)
		if err != nil {
			return nil, err
		}
		return eng, nil
	}
	switch {
	case sc.NewSolver == nil:
		return nil, errors.New("engine: sharded needs ShardConfig.NewSolver (one solver per shard)")
	case cfg.Tracer != nil:
		return nil, errors.New("engine: sharded does not support a tracer (per-shard event streams would interleave)")
	case cfg.Provenance:
		return nil, errors.New("engine: sharded does not support provenance recording")
	case cfg.Predictor != nil:
		return nil, errors.New("engine: sharded does not support prediction (per-shard predictors would observe partial streams)")
	case cfg.OverheadHook != nil:
		return nil, errors.New("engine: sharded does not support an overhead hook (hooks see per-shard request ids)")
	}
	if cfg.Platform == nil || cfg.TaskSet == nil {
		return nil, errors.New("engine: sharded needs a platform and task set")
	}
	parts, err := cfg.Platform.Partition(sc.Shards)
	if err != nil {
		return nil, err
	}
	s := &sharded{
		cfg:    cfg,
		shards: make([]shardState, 0, len(parts)),
		loads:  sched.NewLoadIndex(len(parts)),
	}
	for _, part := range parts {
		sub, err := cfg.TaskSet.Project(part.Platform, part.GlobalIDs)
		if err != nil {
			return nil, err
		}
		scfg := cfg
		scfg.Platform = part.Platform
		scfg.TaskSet = sub
		scfg.Solver = sc.NewSolver()
		scfg.StateProbe = nil // the merged global samples come from probeGlobal
		eng, err := New(scfg)
		if err != nil {
			return nil, err
		}
		s.shards = append(s.shards, shardState{eng: eng, sub: part})
	}
	s.elig = make([][]bool, cfg.TaskSet.Len())
	for t := range s.elig {
		ty := cfg.TaskSet.Type(t)
		row := make([]bool, len(s.shards))
		for si, sh := range s.shards {
			for _, g := range sh.sub.GlobalIDs {
				if ty.ExecutableOn(g) {
					row[si] = true
					break
				}
			}
		}
		s.elig[t] = row
	}
	s.workers = min(len(s.shards), runtime.GOMAXPROCS(0))
	return s, nil
}

// syncLoads refreshes the shard load index from the engines' in-flight
// counts. Only shards whose count changed since the last sync pay the
// O(log shards) reposition.
func (s *sharded) syncLoads() {
	for si := range s.shards {
		if load := float64(s.shards[si].eng.InFlight()); s.loads.Load(si) != load {
			s.loads.Update(si, load)
		}
	}
}

// route picks the shard for a request: the least-loaded shard whose
// projected task set can execute the type, walking the load index in its
// deterministic ascending (load, id) order. The returned shard index is
// a pure function of the engine state, so replaying a trace reproduces
// the routing exactly.
func (s *sharded) route(typeID int) (int, error) {
	if typeID < 0 || typeID >= len(s.elig) {
		return 0, fmt.Errorf("engine: route: unknown type %d", typeID)
	}
	row := s.elig[typeID]
	for k := 0; k < s.loads.Len(); k++ {
		if si := s.loads.At(k); row[si] {
			return si, nil
		}
	}
	return 0, fmt.Errorf("engine: no shard can execute type %d", typeID)
}

// Activate routes one request to a shard and runs its admission there:
// the one-request epoch closing at the arrival.
func (s *sharded) Activate(idx int, req trace.Request) (Outcome, error) {
	outs, err := s.ActivateEpoch(idx, []trace.Request{req}, req.Arrival)
	if err != nil {
		return Outcome{}, err
	}
	return outs[0], nil
}

// ActivateEpoch routes a batch of arrivals across the shards and solves
// the per-shard epochs: the caller claims busy shards one at a time and
// runs them itself, alongside at most min(busy shards, GOMAXPROCS) − 1
// helper goroutines claiming from the same counter (solveBusy).
// Shards are independent — separate platforms, task sets, solvers and
// plans — so which goroutine solves a shard, and when, changes nothing;
// outcomes are returned in global request order, and when shards fail
// the lowest-index shard's error is returned.
func (s *sharded) ActivateEpoch(startIdx int, reqs []trace.Request, close float64) ([]Outcome, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	if startIdx != len(s.routes) {
		return nil, fmt.Errorf("engine: epoch activation id %d out of order (want %d)", startIdx, len(s.routes))
	}
	// Advance everyone to the first arrival, then route the whole batch.
	// Routing adds a tentative +1 load per assignment so a burst spreads
	// over the shards instead of piling onto the one that was least
	// loaded when the epoch opened.
	for si := range s.shards {
		if err := s.shards[si].eng.AdvanceTo(reqs[0].Arrival); err != nil {
			return nil, err
		}
		s.shards[si].group = s.shards[si].group[:0]
	}
	s.syncLoads()
	for i, req := range reqs {
		si, err := s.route(req.Type)
		if err != nil {
			return nil, err
		}
		sh := &s.shards[si]
		sh.group = append(sh.group, req)
		s.routes = append(s.routes, si)
		sh.locals = append(sh.locals, startIdx+i)
		s.loads.Update(si, s.loads.Load(si)+1)
	}

	s.busy = s.busy[:0]
	for si := range s.shards {
		sh := &s.shards[si]
		if n := len(sh.group); n > 0 {
			if cap(sh.outs) < n {
				sh.outs = make([]Outcome, n)
			}
			sh.outs, sh.err, sh.taken = sh.outs[:n], nil, 0
			s.busy = append(s.busy, si)
		}
	}
	s.solveBusy(close)
	for _, si := range s.busy {
		if err := s.shards[si].err; err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, err)
		}
	}
	// Idle shards still advance to the close so the cluster clock moves
	// together.
	for si := range s.shards {
		if len(s.shards[si].group) == 0 {
			if err := s.shards[si].eng.AdvanceTo(close); err != nil {
				return nil, err
			}
		}
	}
	// Reassemble outcomes in global order: each shard's outcomes are in
	// its group order, and the group order is the global order filtered
	// by route. Each outcome is probed as it is counted, so a sample's
	// admission counters stop at its own request.
	outs := make([]Outcome, len(reqs))
	for i := range reqs {
		si := s.routes[startIdx+i]
		sh := &s.shards[si]
		out := sh.outs[sh.taken]
		sh.taken++
		s.globalize(&out, si, startIdx+i)
		outs[i] = out
		if out.Accepted {
			s.accepted++
		} else {
			s.rejected++
		}
		s.probeGlobal(startIdx + i)
	}
	return outs, nil
}

// solveBusy runs every busy shard's epoch, closing at close, and returns
// once all of them have finished. Starting a goroutine on an idle P
// takes longer than a typical shard's epoch (DESIGN.md §12.1), so the
// caller does not park while helpers start: it claims and solves shards
// itself, and waits only for shards another goroutine has claimed. A
// helper that starts after the counter is exhausted claims nothing and
// exits; the caller never waits for it. With one busy shard or one
// worker no goroutine starts at all.
func (s *sharded) solveBusy(close float64) {
	helpers := min(len(s.busy), s.workers) - 1
	if helpers <= 0 {
		for _, si := range s.busy {
			s.solveShard(si, close)
		}
		return
	}
	c := &epochClaims{n: int32(len(s.busy))}
	c.done.Add(len(s.busy))
	for range helpers {
		go s.claimShards(c, close)
	}
	s.claimShards(c, close)
	c.done.Wait()
}

// claimShards solves busy shards claimed from c until every one has been
// claimed. It reads s.busy and a shard's state only after claiming it,
// while the epoch still waits on c.done.
func (s *sharded) claimShards(c *epochClaims, close float64) {
	for {
		k := c.next.Add(1) - 1
		if k >= c.n {
			return
		}
		s.solveShard(s.busy[k], close)
		c.done.Done()
	}
}

// solveShard runs shard si's epoch over its group, writing the outcomes
// into its reused buffer.
func (s *sharded) solveShard(si int, close float64) {
	sh := &s.shards[si]
	sh.err = sh.eng.activate(sh.eng.Requests(), sh.group, close, sh.outs)
}

// globalize rewrites a shard-local outcome into global coordinates.
func (s *sharded) globalize(out *Outcome, si, globalID int) {
	out.Req = globalID
	if out.Resource != sched.Unmapped {
		out.Resource = s.shards[si].sub.GlobalIDs[out.Resource]
	}
}

// probeGlobal emits one merged platform-wide StateSample: every shard
// engine adds its own state through its local-to-global resource map.
// The shards have finished the whole epoch by then, so the admission
// counters are replaced by the global-order counts up to req.
func (s *sharded) probeGlobal(req int) {
	if s.cfg.StateProbe == nil {
		return
	}
	s.probeRes = zeroedSamples(s.probeRes, s.cfg.Platform.Len())
	sample := StateSample{Time: s.Now(), Req: req, Resources: s.probeRes}
	for si := range s.shards {
		s.shards[si].eng.addState(&sample, s.shards[si].sub.GlobalIDs)
	}
	sample.Requests, sample.Accepted, sample.Rejected = s.accepted+s.rejected, s.accepted, s.rejected
	s.cfg.StateProbe(sample)
}

// AdvanceTo advances every shard (monotone, like Engine.AdvanceTo).
func (s *sharded) AdvanceTo(t float64) error {
	for si := range s.shards {
		if err := s.shards[si].eng.AdvanceTo(t); err != nil {
			return err
		}
	}
	return nil
}

// NextWake is the earliest wake time over the shards.
func (s *sharded) NextWake() (float64, bool) {
	best, found := math.Inf(1), false
	for si := range s.shards {
		if t, ok := s.shards[si].eng.NextWake(); ok && t < best {
			best, found = t, true
		}
	}
	if !found {
		return 0, false
	}
	return best, true
}

// Drain runs every shard's remaining work out.
func (s *sharded) Drain() error {
	for si := range s.shards {
		if err := s.shards[si].eng.Drain(); err != nil {
			return err
		}
	}
	return nil
}

// Now is the most advanced shard clock.
func (s *sharded) Now() float64 {
	now := 0.0
	for si := range s.shards {
		if t := s.shards[si].eng.Now(); t > now {
			now = t
		}
	}
	return now
}

// InFlight sums the shards' active jobs.
func (s *sharded) InFlight() int {
	n := 0
	for si := range s.shards {
		n += s.shards[si].eng.InFlight()
	}
	return n
}

// Requests counts activations routed so far.
func (s *sharded) Requests() int {
	return len(s.routes)
}

// Finalize merges the shard results into one platform-wide Result:
// counters sum, MakeSpan is the max, job records return to global ids
// and activation order, executed segments return to global resource
// ids, and the telemetry snapshot is taken once from the shared
// registry. Like Engine.Finalize it publishes one end-of-run StateSample
// (Req -1) and is idempotent.
func (s *sharded) Finalize() *Result {
	if s.res != nil {
		return s.res
	}
	subs := make([]*Result, len(s.shards))
	for si := range s.shards {
		subs[si] = s.shards[si].eng.Finalize()
	}
	s.probeGlobal(-1)
	res := &Result{}
	for _, r := range subs {
		res.Requests += r.Requests
		res.Accepted += r.Accepted
		res.Rejected += r.Rejected
		res.TotalEnergy += r.TotalEnergy
		res.MigrationEnergy += r.MigrationEnergy
		res.Migrations += r.Migrations
		res.DeadlineMisses += r.DeadlineMisses
		if r.MakeSpan > res.MakeSpan {
			res.MakeSpan = r.MakeSpan
		}
	}
	// Job records in global activation order.
	taken := make([]int, len(s.shards))
	res.Jobs = make([]JobRecord, len(s.routes))
	for g, si := range s.routes {
		rec := subs[si].Jobs[taken[si]]
		taken[si]++
		rec.ID = g
		res.Jobs[g] = rec
	}
	// Executed segments per global resource, in resource order; each
	// global resource lives on exactly one shard, so its segments arrive
	// already start-ordered.
	if s.cfg.RecordExecution {
		byRes := make([][]ExecSegment, s.cfg.Platform.Len())
		for si := range s.shards {
			ids := s.shards[si].sub.GlobalIDs
			locals := s.shards[si].locals
			for _, seg := range subs[si].Execution {
				seg.Resource = ids[seg.Resource]
				if seg.JobID >= 0 {
					seg.JobID = locals[seg.JobID]
				}
				byRes[seg.Resource] = append(byRes[seg.Resource], seg)
			}
		}
		for _, segs := range byRes {
			res.Execution = append(res.Execution, segs...)
		}
	}
	if s.cfg.Metrics != nil {
		res.Telemetry = s.cfg.Metrics.Snapshot()
	}
	s.res = res
	return res
}
