package sched

import (
	"math"
	"math/bits"
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
// fingerprints stop being asked for. A slot left from an earlier
// activation answers its own key with the verdict it stored and misses
// for any other until a store overwrites it; it never yields a wrong
// verdict, so the table needs no invalidation.
//
// A FeasCache is a plain direct-mapped table owned by one solver; it is
// not safe for concurrent use.
type FeasCache struct {
	slots []uint64 // tag word: (hi &^ 1) | feasible bit; 0 = empty
	mask  uint64
}

// DefaultFeasCacheSlots is the default table size: 1<<15 slots of 8 bytes
// (256 KiB), far beyond the working set of one activation but small
// enough to allocate per solver instance.
const DefaultFeasCacheSlots = 1 << 15

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
	return &FeasCache{slots: make([]uint64, size), mask: uint64(size - 1)}
}

// Fp is a 128-bit feasibility-probe fingerprint.
type Fp struct {
	Hi, Lo uint64
}

// Lookup returns the cached verdict for fp. The second result reports
// whether the key was present.
func (c *FeasCache) Lookup(fp Fp) (feasible, ok bool) {
	if c == nil {
		return false, false
	}
	w := c.slots[fp.Lo&c.mask]
	if w == 0 || w&^1 != fp.Hi&^1 {
		return false, false
	}
	return w&1 == 1, true
}

// Store records the verdict for fp and reports whether it evicted another
// key's verdict from the slot.
func (c *FeasCache) Store(fp Fp, feasible bool) (evicted bool) {
	if c == nil {
		return false
	}
	w := fp.Hi &^ 1
	if w == 0 {
		w = 0x9e3779b97f4a7c14 // keep 0 reserved for "empty"
	}
	if feasible {
		w |= 1
	}
	i := fp.Lo & c.mask
	old := c.slots[i]
	c.slots[i] = w
	return old != 0 && old&^1 != w&^1
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
// order-sensitive in its fields but fingerprint combines entry hashes into
// an order-independent multiset digest, which is exactly the identity of a
// feasibility probe: EntryList keeps a canonical service order determined
// by content alone.
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

// fingerprint returns the cache key for "are the current entries, with
// times normalised to activation time t, EDF-feasible on a resource with
// this preemption mode": the xor and the sum of the entry hashes, mixed
// with the entry and future-release counts.
func (l *EntryList) fingerprint(preemptable bool, t float64) Fp {
	var x, sum uint64
	for _, e := range l.entries {
		h := entryHash(t, e)
		x ^= h
		sum += h
	}
	seed := uint64(len(l.entries))<<1 | uint64(l.future)<<32
	if preemptable {
		seed |= 1
	}
	a := mix64(x ^ seed)
	b := mix64(sum + 0x2545f4914f6cdd1d + seed)
	return Fp{
		Hi: mix64(a ^ bits.RotateLeft64(b, 23)),
		Lo: mix64(b ^ bits.RotateLeft64(a, 41)),
	}
}
