package engine

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"predrm/internal/core"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/task"
	"predrm/internal/trace"
)

// shardFixture builds a large-platform workload and a fresh sharded
// engine factory over it; the factory's argument is the engine's
// StateProbe (nil for none).
func shardFixture(t *testing.T, spec string, shards, length int, meanIA float64, seed uint64) (*trace.Trace, func(func(StateSample)) *sharded) {
	t.Helper()
	plat, err := platform.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	gc := trace.DefaultGenConfig(trace.VeryTight)
	gc.Length = length
	gc.InterarrivalMean = meanIA
	gc.InterarrivalStd = meanIA / 3
	tr, err := trace.Generate(set, gc, rng.New(seed+1))
	if err != nil {
		t.Fatal(err)
	}
	return tr, func(probe func(StateSample)) *sharded {
		d, err := NewSharded(Config{Platform: plat, TaskSet: set, StateProbe: probe}, ShardConfig{
			Shards:    shards,
			NewSolver: func() core.Solver { return &core.Heuristic{} },
		})
		if err != nil {
			t.Fatal(err)
		}
		return d.(*sharded)
	}
}

// TestNewShardedOneShardIsEngine: with 0 or 1 shards NewSharded returns
// the bare Engine, its solver built by NewSolver when the Config has
// none; a negative count is an error.
func TestNewShardedOneShardIsEngine(t *testing.T) {
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(61))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 1} {
		var built core.Solver
		d, err := NewSharded(Config{Platform: platform.Default(), TaskSet: set}, ShardConfig{
			Shards:    shards,
			NewSolver: func() core.Solver { built = &core.Heuristic{}; return built },
		})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		e, ok := d.(*Engine)
		if !ok {
			t.Fatalf("%d shards: NewSharded returned %T, want *Engine", shards, d)
		}
		if built == nil || e.cfg.Solver != built {
			t.Fatalf("%d shards: solver %v not the one NewSolver built", shards, e.cfg.Solver)
		}
	}
	if _, err := NewSharded(Config{Platform: platform.Default(), TaskSet: set, Solver: &core.Heuristic{}}, ShardConfig{Shards: -1}); err == nil {
		t.Fatal("negative shard count accepted")
	}
}

// TestShardedStateSample: at 4 shards every merged sample, taken after
// each decision, carries the sums of the shard engines' counters, and
// each global resource reports the owning shard's own jobs, earliest
// deadline and reservations on its local id.
func TestShardedStateSample(t *testing.T) {
	tr, build := shardFixture(t, "16c2g", 4, 120, 0.6, 65)
	var s *sharded
	samples, busy := 0, 0
	s = build(func(got StateSample) {
		samples++
		var want StateSample
		for si := range s.shards {
			e := s.shards[si].eng
			want.Accepted += e.res.Accepted
			want.Rejected += e.res.Rejected
			want.Finished += e.finished
			want.DeadlineMisses += e.res.DeadlineMisses
			want.InFlight += len(e.active)
		}
		want.Requests = want.Accepted + want.Rejected
		if got.Requests != want.Requests || got.Accepted != want.Accepted || got.Rejected != want.Rejected ||
			got.Finished != want.Finished || got.DeadlineMisses != want.DeadlineMisses || got.InFlight != want.InFlight {
			t.Fatalf("req %d: counters %+v, shard sums %+v", got.Req, got, want)
		}
		if got.Requests != got.Req+1 {
			t.Fatalf("req %d: sample counts %d decisions", got.Req, got.Requests)
		}
		if len(got.Resources) != 18 {
			t.Fatalf("req %d: %d resource samples, want 18", got.Req, len(got.Resources))
		}
		for si := range s.shards {
			e := s.shards[si].eng
			for local, g := range s.shards[si].sub.GlobalIDs {
				var rs ResourceSample
				for _, j := range e.active {
					if j.Resource != local {
						continue
					}
					rs.Jobs++
					if rs.NextDeadline == 0 || j.AbsDeadline < rs.NextDeadline {
						rs.NextDeadline = j.AbsDeadline
					}
				}
				for _, r := range e.pendingResv {
					if r.res == local {
						rs.Reserved++
					}
				}
				if got.Resources[g] != rs {
					t.Fatalf("req %d: resource %d (shard %d, local %d) sampled %+v, shard state %+v", got.Req, g, si, local, got.Resources[g], rs)
				}
				if rs.Jobs > 0 {
					busy++
				}
			}
		}
	})
	for i, req := range tr.Requests {
		if _, err := s.Activate(i, req); err != nil {
			t.Fatal(err)
		}
	}
	if samples != len(tr.Requests) {
		t.Fatalf("%d samples for %d decisions", samples, len(tr.Requests))
	}
	if busy == 0 {
		t.Fatal("no sample showed a mapped job; fixture exercises nothing")
	}
}

// TestShardedFinalSample: at 4 shards a drained run ends with one
// merged sample (Req -1) after the per-decision ones, whose counters
// equal the merged Result and which holds no reservation.
func TestShardedFinalSample(t *testing.T) {
	tr, build := shardFixture(t, "16c2g", 4, 120, 0.6, 65)
	var samples []StateSample
	s := build(func(got StateSample) {
		got.Resources = append([]ResourceSample(nil), got.Resources...)
		samples = append(samples, got)
	})
	for i, req := range tr.Requests {
		if _, err := s.Activate(i, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	res := s.Finalize()
	s.Finalize() // idempotent: no second end-of-run sample
	if len(samples) != len(tr.Requests)+1 {
		t.Fatalf("%d samples for %d requests, want requests + 1", len(samples), len(tr.Requests))
	}
	last := samples[len(samples)-1]
	if last.Req != -1 {
		t.Fatalf("last sample has Req %d, want -1", last.Req)
	}
	if last.Requests != res.Requests || last.Accepted != res.Accepted || last.Rejected != res.Rejected {
		t.Fatalf("end-of-run sample %d/%d/%d requests/accepted/rejected, Result %d/%d/%d",
			last.Requests, last.Accepted, last.Rejected, res.Requests, res.Accepted, res.Rejected)
	}
	if res.Requests != len(tr.Requests) {
		t.Fatalf("Result counts %d requests, want %d", res.Requests, len(tr.Requests))
	}
	for g, rs := range last.Resources {
		if rs.Reserved != 0 {
			t.Fatalf("resource %d still holds %d reservation(s) at the end of the run", g, rs.Reserved)
		}
	}
}

// TestShardedNextWakeIsMin: the scale-out engine's next wake time is the
// minimum over its shards' own wake times — the property the wall-clock
// dispatcher's timer depends on at shard boundaries.
func TestShardedNextWakeIsMin(t *testing.T) {
	tr, build := shardFixture(t, "16c2g", 4, 60, 1.0, 71)
	s := build(nil)
	sawWake := false
	for i, req := range tr.Requests {
		if _, err := s.Activate(i, req); err != nil {
			t.Fatal(err)
		}
		want, wantOK := math.Inf(1), false
		for si := range s.shards {
			if w, ok := s.shards[si].eng.NextWake(); ok && w < want {
				want, wantOK = w, true
			}
		}
		got, gotOK := s.NextWake()
		if gotOK != wantOK || (wantOK && got != want) {
			t.Fatalf("after req %d: NextWake = (%v, %v), min over shards = (%v, %v)", i, got, gotOK, want, wantOK)
		}
		if wantOK {
			sawWake = true
			if got < req.Arrival {
				t.Fatalf("after req %d: next wake %v before engine time %v", i, got, req.Arrival)
			}
		}
	}
	if !sawWake {
		t.Fatal("no activation left a pending wake; fixture too idle to test anything")
	}
	if err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.NextWake(); ok {
		t.Fatal("drained engine still reports a pending wake")
	}
}

// TestShardedAdvanceToLateHarmless: advancing far past many pending
// events in one late call lands in exactly the state reached by stepping
// wake-by-wake, and a stale (earlier) AdvanceTo after that is a no-op —
// DESIGN.md §11's contract, here across shard boundaries where each
// shard replays a different event backlog.
func TestShardedAdvanceToLateHarmless(t *testing.T) {
	tr, build := shardFixture(t, "16c2g", 4, 80, 0.8, 81)
	mid := len(tr.Requests) / 2

	stepped, late := build(nil), build(nil)
	for i, req := range tr.Requests[:mid] {
		if _, err := stepped.Activate(i, req); err != nil {
			t.Fatal(err)
		}
		if _, err := late.Activate(i, req); err != nil {
			t.Fatal(err)
		}
	}
	horizon := stepped.Now() + 50
	// One driver follows every wake; the other sleeps through all of them
	// and pushes the clock once.
	for {
		w, ok := stepped.NextWake()
		if !ok || w > horizon {
			break
		}
		if err := stepped.AdvanceTo(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := stepped.AdvanceTo(horizon); err != nil {
		t.Fatal(err)
	}
	if err := late.AdvanceTo(horizon); err != nil {
		t.Fatal(err)
	}
	// Stale advance: strictly earlier than the clock; must change nothing.
	if err := late.AdvanceTo(horizon - 25); err != nil {
		t.Fatalf("stale AdvanceTo errored: %v", err)
	}
	if got := late.Now(); got != horizon {
		t.Fatalf("stale AdvanceTo moved the clock: %v, want %v", got, horizon)
	}
	if a, b := stepped.InFlight(), late.InFlight(); a != b {
		t.Fatalf("in-flight diverges: stepped %d, late %d", a, b)
	}

	// Both continue identically to the end of the trace.
	for i, req := range tr.Requests[mid:] {
		if _, err := stepped.Activate(mid+i, req); err != nil {
			t.Fatal(err)
		}
		if _, err := late.Activate(mid+i, req); err != nil {
			t.Fatal(err)
		}
	}
	if err := stepped.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := late.Drain(); err != nil {
		t.Fatal(err)
	}
	a, b := stepped.Finalize(), late.Finalize()
	// Decisions and counters must agree exactly. Energies and finish
	// times are accumulated per executed segment, and the two drivers
	// split segments at different AdvanceTo boundaries, so those float
	// sums may differ in the last ulp — that is the only slack granted.
	if a.Requests != b.Requests || a.Accepted != b.Accepted || a.Rejected != b.Rejected ||
		a.Migrations != b.Migrations || a.DeadlineMisses != b.DeadlineMisses {
		t.Fatalf("late advance changed the run: %+v vs %+v", a, b)
	}
	if math.Abs(a.TotalEnergy-b.TotalEnergy) > 1e-9 {
		t.Fatalf("total energy diverges: %v vs %v", a.TotalEnergy, b.TotalEnergy)
	}
	if math.Abs(a.MakeSpan-b.MakeSpan) > 1e-9 {
		t.Fatalf("makespan diverges: %v vs %v", a.MakeSpan, b.MakeSpan)
	}
	for i := range a.Jobs {
		ja, jb := a.Jobs[i], b.Jobs[i]
		if ja.Accepted != jb.Accepted || ja.Migrations != jb.Migrations || ja.MissedDeadline != jb.MissedDeadline {
			t.Fatalf("job %d diverges: %+v vs %+v", i, ja, jb)
		}
		if math.Abs(ja.FinishTime-jb.FinishTime) > 1e-9 {
			t.Fatalf("job %d finish time diverges: %v vs %v", i, ja.FinishTime, jb.FinishTime)
		}
		if math.Abs(ja.Energy-jb.Energy) > 1e-9 {
			t.Fatalf("job %d energy diverges: %v vs %v", i, ja.Energy, jb.Energy)
		}
	}
}

// TestBatchEpochSingletonDelegates: a one-request epoch closing at its
// own arrival is the one-by-one protocol — byte-identical Results on a
// bare (unsharded) Engine. Both sides run the one activation path, so
// this guards the entry points' wiring; the sim package's golden files
// pin the path itself.
func TestBatchEpochSingletonDelegates(t *testing.T) {
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(91))
	if err != nil {
		t.Fatal(err)
	}
	gc := trace.DefaultGenConfig(trace.VeryTight)
	gc.Length = 100
	gc.InterarrivalMean = 4
	gc.InterarrivalStd = 4.0 / 3
	tr, err := trace.Generate(set, gc, rng.New(92))
	if err != nil {
		t.Fatal(err)
	}
	newEng := func() *Engine {
		e, err := New(Config{Platform: platform.Default(), TaskSet: set, Solver: &core.Heuristic{}})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	oneByOne, epochs := newEng(), newEng()
	for i, req := range tr.Requests {
		if _, err := oneByOne.Activate(i, req); err != nil {
			t.Fatal(err)
		}
		outs, err := epochs.ActivateEpoch(i, tr.Requests[i:i+1], req.Arrival)
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 1 || outs[0].Req != i {
			t.Fatalf("epoch %d: bad outcomes %+v", i, outs)
		}
	}
	if err := oneByOne.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := epochs.Drain(); err != nil {
		t.Fatal(err)
	}
	aJSON, _ := json.Marshal(oneByOne.Finalize())
	bJSON, _ := json.Marshal(epochs.Finalize())
	if !bytes.Equal(aJSON, bJSON) {
		t.Fatalf("singleton epochs diverge from Activate:\n%s\n%s", aJSON, bJSON)
	}
}

// TestBatchEpochDecidesAtClose: every decision of a multi-request epoch
// is taken at the epoch close (no overhead configured), the arrivals were
// all recorded at their own times, and the closing state sample reports
// the plan the epoch installed, reservations included — as Activate's
// sample does.
func TestBatchEpochDecidesAtClose(t *testing.T) {
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(95))
	if err != nil {
		t.Fatal(err)
	}
	gc := trace.DefaultGenConfig(trace.LessTight)
	gc.Length = 8
	gc.InterarrivalMean = 1
	gc.InterarrivalStd = 0.3
	tr, err := trace.Generate(set, gc, rng.New(96))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := predict.NewOracle(tr, predict.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len(), Seed: 97})
	if err != nil {
		t.Fatal(err)
	}
	var samples []StateSample
	e, err := New(Config{
		Platform: platform.Default(), TaskSet: set, Solver: &core.Heuristic{}, Predictor: oracle,
		StateProbe: func(s StateSample) {
			s.Resources = append([]ResourceSample(nil), s.Resources...)
			samples = append(samples, s)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The epoch leaves the last requests out, so the forecast has a next
	// request to reserve for.
	epoch := tr.Requests[:len(tr.Requests)-2]
	close := epoch[len(epoch)-1].Arrival + 2
	outs, err := e.ActivateEpoch(0, epoch, close)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != len(epoch) {
		t.Fatalf("got %d outcomes for %d requests", len(outs), len(epoch))
	}
	for i, out := range outs {
		if out.Req != i {
			t.Fatalf("outcome %d has req %d", i, out.Req)
		}
		if out.Time != close {
			t.Fatalf("outcome %d decided at %v, want epoch close %v", i, out.Time, close)
		}
	}
	if e.Requests() != len(epoch) {
		t.Fatalf("engine counted %d requests, want %d", e.Requests(), len(epoch))
	}
	if len(samples) != len(epoch) {
		t.Fatalf("got %d state samples for %d decisions", len(samples), len(epoch))
	}
	closing := samples[len(samples)-1]
	if closing.Req != len(epoch)-1 {
		t.Fatalf("closing sample is for request %d, want %d", closing.Req, len(epoch)-1)
	}
	reserved := 0
	for res, rs := range closing.Resources {
		want := 0
		for _, g := range e.pendingResv {
			if g.res == res {
				want++
			}
		}
		if rs.Reserved != want {
			t.Fatalf("closing sample reserves %d on resource %d, installed plan %d", rs.Reserved, res, want)
		}
		reserved += rs.Reserved
	}
	if reserved == 0 {
		t.Fatal("closing sample shows no reservation; fixture exercises nothing")
	}
	if err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	res := e.Finalize()
	for i, rec := range res.Jobs {
		if rec.Arrival != tr.Requests[i].Arrival {
			t.Fatalf("job %d arrival %v, want %v", i, rec.Arrival, tr.Requests[i].Arrival)
		}
	}
	if res.DeadlineMisses != 0 {
		t.Fatalf("%d accepted jobs missed deadlines", res.DeadlineMisses)
	}
}
