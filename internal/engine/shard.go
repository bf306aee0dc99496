// Scale-out admission: a platform partitioned into shards, each owning
// its resources and EDF state, behind the same Driver surface as a
// single Engine.
//
// The admission problem is solved per shard: an arrival is routed by a
// cheap load/affinity pre-filter (a sched.LoadIndex over the shards,
// walked from least loaded upward to the first shard whose projected
// task set can execute the type), then admitted by that shard's own
// engine against only the shard's resources. Decision cost therefore
// scales with shard size, not platform size, and batch epochs solve the
// per-shard groups concurrently. The price is optimality: a job is
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
	// cfg.Solver. Required when Shards > 1; with one shard it supplies
	// cfg.Solver when that is nil.
	NewSolver func() core.Solver
}

// shardState is one partition's engine and routing metadata.
type shardState struct {
	eng *Engine
	sub platform.Shard
	// locals maps the shard's local request ids back to global ids, in
	// activation order (local id == index).
	locals []int
}

// sharded drives one engine per platform shard behind the Driver
// interface. Not safe for concurrent use (like Engine); the concurrency
// inside ActivateEpoch stays behind the call.
type sharded struct {
	cfg     Config
	shards  []shardState
	loads   *sched.LoadIndex
	elig    [][]bool // [typeID][shard]
	workers int
	// routes maps global request id -> shard index (the local id is the
	// position in that shard's locals).
	routes []int
	res    *Result // merged result, built once by Finalize
	// probeRes backs the merged samples' Resources, reused like Engine's.
	probeRes []ResourceSample
}

// NewSharded builds the engine for sc: with 0 or 1 shards the bare
// Engine over cfg (cfg.Solver from sc.NewSolver when nil), with more a
// partition of cfg.Platform into sc.Shards shards and one engine per
// shard. There the features whose state is inherently global — tracing,
// provenance, critical workloads, prediction, the overhead hook — are
// rejected rather than silently given per-shard semantics; Metrics and
// StateProbe are supported globally (a shared registry, and globally
// merged samples).
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
	case cfg.Critical != nil:
		return nil, errors.New("engine: sharded does not support critical workloads (static global placements)")
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
	// At most min(shards, GOMAXPROCS) shard solves run at once.
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

// ActivateEpoch routes a batch of arrivals across the shards and runs
// the per-shard epochs concurrently, at most min(shards, GOMAXPROCS) at
// a time.
// Shards are independent — separate platforms, task sets, solvers and
// plans — so concurrent solving is deterministic; outcomes are returned
// in global request order.
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
	}
	s.syncLoads()
	groups := make([][]trace.Request, len(s.shards))
	for i, req := range reqs {
		si, err := s.route(req.Type)
		if err != nil {
			return nil, err
		}
		groups[si] = append(groups[si], req)
		s.routes = append(s.routes, si)
		s.shards[si].locals = append(s.shards[si].locals, startIdx+i)
		s.loads.Update(si, s.loads.Load(si)+1)
	}

	type shardRun struct {
		outs []Outcome
		err  error
	}
	runs := make([]shardRun, len(s.shards))
	sem := make(chan struct{}, s.workers)
	var wg sync.WaitGroup
	for si := range s.shards {
		if len(groups[si]) == 0 {
			continue
		}
		wg.Add(1)
		go func(si int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sh := &s.shards[si]
			local := sh.eng.Requests()
			outs, err := sh.eng.ActivateEpoch(local, groups[si], close)
			runs[si] = shardRun{outs: outs, err: err}
		}(si)
	}
	wg.Wait()
	for si := range runs {
		if runs[si].err != nil {
			return nil, fmt.Errorf("shard %d: %w", si, runs[si].err)
		}
	}
	// Idle shards still advance to the close so the cluster clock moves
	// together.
	for si := range s.shards {
		if len(groups[si]) == 0 {
			if err := s.shards[si].eng.AdvanceTo(close); err != nil {
				return nil, err
			}
		}
	}
	// Reassemble outcomes in global order: each shard's outcomes are in
	// its group order, and the group order is the global order filtered
	// by route.
	taken := make([]int, len(s.shards))
	outs := make([]Outcome, len(reqs))
	for i := range reqs {
		si := s.routes[startIdx+i]
		out := runs[si].outs[taken[si]]
		taken[si]++
		s.globalize(&out, si, startIdx+i)
		outs[i] = out
	}
	for i := range reqs {
		s.probeGlobal(startIdx + i)
	}
	return outs, nil
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
func (s *sharded) probeGlobal(req int) {
	if s.cfg.StateProbe == nil {
		return
	}
	s.probeRes = zeroedSamples(s.probeRes, s.cfg.Platform.Len())
	sample := StateSample{Time: s.Now(), Req: req, Resources: s.probeRes}
	for si := range s.shards {
		s.shards[si].eng.addState(&sample, s.shards[si].sub.GlobalIDs)
	}
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

// HasAdaptiveWork reports whether any shard still has active jobs.
func (s *sharded) HasAdaptiveWork() bool {
	for si := range s.shards {
		if s.shards[si].eng.HasAdaptiveWork() {
			return true
		}
	}
	return false
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
