package sched

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// Feasibility fingerprinting and the cross-activation pruning cache.
//
// The branch-and-bound solver asks the same schedulability question —
// "is this multiset of entries EDF-feasible on this resource?" — over and
// over: sibling subtrees that place the same jobs on a resource probe an
// identical list, the admission protocol re-solves near-identical problems
// with one predicted job dropped, and consecutive RM activations share
// almost all of their admitted state. FeasCache memoises those probes —
// the ones that run the EDF simulation; a list without a future release
// is answered by the cumulative scan, which is cheaper than a lookup
// (EntryList.Feasible).
//
// Keys are content fingerprints of the entry multiset with all times
// normalised to the activation time t (ReadyAt-t, Deadline-t), so a state
// that recurs at a later activation — the common case for an arriving job
// probed against an empty or lightly loaded resource — maps to the same
// key. EDF feasibility is shift-invariant in exact arithmetic; float
// rounding can in principle flip a verdict that sits within Eps of the
// boundary between two activation times, the same measure-zero boundary
// class the solvers' Eps tolerance already absorbs (see DESIGN.md).
//
// Because keys are content-addressed, a cached verdict can never go stale:
// when a job finishes it simply stops appearing in probed lists, and its
// fingerprints stop being asked for. Invalidation is therefore a capacity
// concern, not a correctness one — Advance (called once per solver
// activation) retires slots that have not been touched for TTLEpochs
// activations with an incremental clock sweep, so the table tracks the
// live working set instead of accumulating every state ever probed.
type FeasCache struct {
	slots  []atomic.Uint64 // tag word: (hi &^ 1) | feasible bit; 0 = empty
	epochs []atomic.Uint32 // last-touched epoch per slot, for the sweep
	mask   uint64
	epoch  atomic.Uint32
	sweep  int // next slot the incremental sweep will examine

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	sweeps    atomic.Int64 // slots retired by Advance
}

// DefaultFeasCacheSlots is the default table size: 1<<15 slots of 12 bytes
// (~400 KiB), far beyond the working set of one activation but small
// enough to allocate per solver instance.
const DefaultFeasCacheSlots = 1 << 15

// TTLEpochs is how many Advance calls (solver activations) an untouched
// slot survives before the incremental sweep retires it.
const TTLEpochs = 64

// sweepChunk slots are examined per Advance call, so a full cycle over the
// default table takes len/sweepChunk ≈ 128 activations — the sweep stays
// O(1) per activation while retiring finished jobs' states within a
// bounded number of activations of their last use.
const sweepChunk = 256

// NewFeasCache builds a cache with at least the given number of slots
// (rounded up to a power of two; n <= 0 selects the default size).
func NewFeasCache(n int) *FeasCache {
	if n <= 0 {
		n = DefaultFeasCacheSlots
	}
	size := 1
	for size < n {
		size <<= 1
	}
	return &FeasCache{
		slots:  make([]atomic.Uint64, size),
		epochs: make([]atomic.Uint32, size),
		mask:   uint64(size - 1),
	}
}

// Fp is a 128-bit feasibility-probe fingerprint.
type Fp struct {
	Hi, Lo uint64
}

// Lookup returns the cached verdict for fp. The second result reports
// whether the key was present. Lookup is safe for concurrent use and does
// not touch the hit/miss statistics — callers batch those via AddStats so
// a probe pays no per-probe atomics.
func (c *FeasCache) Lookup(fp Fp) (feasible, ok bool) {
	if c == nil {
		return false, false
	}
	i := fp.Lo & c.mask
	w := c.slots[i].Load()
	if w == 0 || w&^1 != fp.Hi&^1 {
		return false, false
	}
	c.epochs[i].Store(c.epoch.Load()) // keep hot entries alive
	return w&1 == 1, true
}

// Store records the verdict for fp, evicting whatever occupied the slot.
// Safe for concurrent use; on a racing double store the last writer wins,
// which is harmless because both record the same truth for the same key.
func (c *FeasCache) Store(fp Fp, feasible bool) {
	if c == nil {
		return
	}
	w := fp.Hi &^ 1
	if w == 0 {
		w = 0x9e3779b97f4a7c14 // keep 0 reserved for "empty"
	}
	if feasible {
		w |= 1
	}
	i := fp.Lo & c.mask
	if old := c.slots[i].Load(); old != 0 && old&^1 != w&^1 {
		c.evictions.Add(1)
	}
	c.slots[i].Store(w)
	c.epochs[i].Store(c.epoch.Load())
}

// Advance starts a new epoch (one solver activation) and runs one
// increment of the clock sweep: the next sweepChunk slots are examined and
// those untouched for TTLEpochs epochs are retired. Advance must not race
// with Lookup/Store; solvers call it at the start of a Solve, before any
// probe of that solve.
func (c *FeasCache) Advance() {
	if c == nil {
		return
	}
	e := c.epoch.Add(1)
	n := len(c.slots)
	chunk := sweepChunk
	if chunk > n {
		chunk = n
	}
	for k := 0; k < chunk; k++ {
		i := c.sweep
		c.sweep++
		if c.sweep == n {
			c.sweep = 0
		}
		if c.slots[i].Load() == 0 {
			continue
		}
		if e-c.epochs[i].Load() > TTLEpochs {
			c.slots[i].Store(0)
			c.sweeps.Add(1)
		}
	}
}

// AddStats folds one solve's batched hit/miss counts into the cache
// totals.
func (c *FeasCache) AddStats(hits, misses int64) {
	if c == nil {
		return
	}
	c.hits.Add(hits)
	c.misses.Add(misses)
}

// CacheStats is a snapshot of a FeasCache's lifetime behaviour.
type CacheStats struct {
	// Hits and Misses count probes answered from / absent from the table
	// (as reported through AddStats).
	Hits, Misses int64
	// Evictions counts slots overwritten by a colliding key.
	Evictions int64
	// Swept counts slots retired by the epoch sweep.
	Swept int64
	// Epoch is the number of Advance calls.
	Epoch uint32
}

// HitRate returns Hits/(Hits+Misses), or 0 before any probe.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns the cache's lifetime statistics. Nil-safe.
func (c *FeasCache) Stats() CacheStats {
	if c == nil {
		return CacheStats{}
	}
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Swept:     c.sweeps.Load(),
		Epoch:     c.epoch.Load(),
	}
}

// mix64 is the splitmix64 finaliser: a fast, well-dispersed 64-bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// entryHash hashes one entry with all times normalised to t. The hash is
// order-sensitive in its fields but the accumulators below combine entry
// hashes into an order-independent multiset digest, which is exactly the
// identity of a feasibility probe: EntryList keeps a canonical service
// order determined by content alone.
func entryHash(t float64, e Entry) uint64 {
	h := uint64(0x51_7c_c1_b7_27_22_0a_95)
	h = mix64(h ^ math.Float64bits(e.ReadyAt-t))
	h = mix64(h ^ math.Float64bits(e.Deadline-t))
	h = mix64(h ^ math.Float64bits(e.Rem))
	if e.PinnedFirst {
		h = mix64(h ^ 0x9e3779b97f4a7c15)
	}
	// Never contribute 0: a zero hash would make the entry invisible to
	// the xor accumulator.
	if h == 0 {
		h = 1
	}
	return h
}

// EnableFingerprint switches on incremental fingerprint maintenance for a
// list that is (or will be) populated at activation time t. It must be
// called on an empty list; Insert and Remove then keep a multiset digest
// of the entries at O(1) extra cost, and FeasFingerprint reads it without
// touching the entries. Reset preserves the setting. Lists whose owner has no FeasCache leave it off and
// pay nothing.
func (l *EntryList) EnableFingerprint(t float64) {
	l.fpOn = true
	l.fpT = t
	l.fpXor = 0
	l.fpSum = 0
}

// FeasFingerprint returns the cache key for "are the current entries
// EDF-feasible on a resource with this preemption mode". It panics if
// EnableFingerprint was not called.
func (l *EntryList) FeasFingerprint(preemptable bool) Fp {
	if !l.fpOn {
		panic("sched: FeasFingerprint without EnableFingerprint")
	}
	seed := uint64(len(l.entries))<<1 | uint64(l.future)<<32
	if preemptable {
		seed |= 1
	}
	a := mix64(l.fpXor ^ seed)
	b := mix64(l.fpSum + 0x2545f4914f6cdd1d + seed)
	return Fp{
		Hi: mix64(a ^ bits.RotateLeft64(b, 23)),
		Lo: mix64(b ^ bits.RotateLeft64(a, 41)),
	}
}
