package sched

import (
	"testing"

	"predrm/internal/rng"
)

// randEntry draws an entry around activation time t, occasionally released
// in the future (the predicted job) or pinned.
func randEntry(r *rng.Rand, t float64) Entry {
	e := Entry{
		ReadyAt:  t,
		Deadline: t + r.Uniform(1, 100),
		Rem:      r.Uniform(0.5, 5),
	}
	if r.Float64() < 0.2 {
		e.ReadyAt = t + r.Uniform(0.1, 5)
	}
	if r.Float64() < 0.15 {
		e.PinnedFirst = true
	}
	return e
}

// TestFingerprintMultiset: the digest must identify the entry multiset —
// independent of insertion order — and distinguish different multisets,
// preemption modes, and duplicated entries.
func TestFingerprintMultiset(t *testing.T) {
	r := rng.New(99)
	now := 42.5
	for trial := 0; trial < 200; trial++ {
		n := 1 + r.Intn(6)
		entries := make([]Entry, n)
		for i := range entries {
			entries[i] = randEntry(r, now)
		}
		var a, b EntryList
		for _, e := range entries {
			a.Insert(now, e)
		}
		// Insert into b in reverse order: same multiset, different history.
		for i := n - 1; i >= 0; i-- {
			b.Insert(now, entries[i])
		}
		if a.fingerprint(true, now) != b.fingerprint(true, now) {
			t.Fatalf("trial %d: same multiset, different fingerprints", trial)
		}
		if a.fingerprint(true, now) == a.fingerprint(false, now) {
			t.Fatalf("trial %d: preemption mode not part of the key", trial)
		}
		// A duplicated entry must not cancel out of the digest.
		dup := entries[r.Intn(n)]
		pos1 := a.Insert(now, dup)
		pos2 := a.Insert(now, dup)
		with2 := a.fingerprint(true, now)
		a.Remove(now, pos2)
		with1 := a.fingerprint(true, now)
		a.Remove(now, pos1)
		back := a.fingerprint(true, now)
		if with2 == back || with1 == back || with2 == with1 {
			t.Fatalf("trial %d: duplicate entries collapsed in the digest", trial)
		}
		if back != b.fingerprint(true, now) {
			t.Fatalf("trial %d: insert/remove did not restore the digest", trial)
		}
	}
}

// TestFingerprintChurn: under an arbitrary interleaving of Insert and
// Remove — the exact access pattern of the repair path, which retains a
// previous mapping and then trial-places the delta — the key of the
// churned list must at every step equal the key of a fresh list rebuilt
// from the surviving multiset. A divergence here would silently poison
// the cross-activation feasibility cache.
func TestFingerprintChurn(t *testing.T) {
	r := rng.New(1234)
	now := 17.25
	for trial := 0; trial < 50; trial++ {
		var l EntryList
		var live []Entry
		var pos []int // pos[i] is the list position entry live[i] occupies
		for step := 0; step < 120; step++ {
			if len(live) == 0 || r.Float64() < 0.55 {
				e := randEntry(r, now)
				p := l.Insert(now, e)
				// Insertion at p shifts every tracked position >= p.
				for i := range pos {
					if pos[i] >= p {
						pos[i]++
					}
				}
				live = append(live, e)
				pos = append(pos, p)
			} else {
				i := r.Intn(len(live))
				p := pos[i]
				l.Remove(now, p)
				for k := range pos {
					if pos[k] > p {
						pos[k]--
					}
				}
				live[i] = live[len(live)-1]
				pos[i] = pos[len(pos)-1]
				live, pos = live[:len(live)-1], pos[:len(pos)-1]
			}
			if err := l.Invariant(now); err != nil {
				t.Fatalf("trial %d step %d: %v", trial, step, err)
			}
			var fresh EntryList
			for _, e := range live {
				fresh.Insert(now, e)
			}
			for _, pre := range []bool{false, true} {
				if l.fingerprint(pre, now) != fresh.fingerprint(pre, now) {
					t.Fatalf("trial %d step %d preemptable=%v: churned list's key differs from the rebuilt list's (%d live entries)",
						trial, step, pre, len(live))
				}
			}
		}
	}
}

// TestFingerprintShiftInvariance: the same relative state at two different
// activation times must produce the same key — that is what makes the
// cache effective across RM activations.
func TestFingerprintShiftInvariance(t *testing.T) {
	var a, b EntryList
	for _, rel := range []struct{ ready, dl, rem float64 }{
		{0, 20, 5}, {3.5, 40, 7.25}, {0, 12.5, 1},
	} {
		a.Insert(10, Entry{ReadyAt: 10 + rel.ready, Deadline: 10 + rel.dl, Rem: rel.rem})
		b.Insert(500, Entry{ReadyAt: 500 + rel.ready, Deadline: 500 + rel.dl, Rem: rel.rem})
	}
	if a.fingerprint(true, 10) != b.fingerprint(true, 500) {
		t.Fatal("time-shifted identical relative state produced different keys")
	}
}

// TestFeasCacheBasics: store/lookup round-trips, unknown keys miss, and
// Store reports an eviction only when it overwrites another key.
func TestFeasCacheBasics(t *testing.T) {
	c := NewFeasCache(64)
	fp := Fp{Hi: 0xdeadbeefcafef00d, Lo: 0x12345}
	if _, ok := c.Lookup(fp); ok {
		t.Fatal("hit on an empty cache")
	}
	if c.Store(fp, true) {
		t.Fatal("store into an empty slot reported an eviction")
	}
	if v, ok := c.Lookup(fp); !ok || !v {
		t.Fatalf("lookup after store: v=%v ok=%v", v, ok)
	}
	// Same key, updated verdict (cannot happen in use, but must not corrupt).
	if c.Store(fp, false) {
		t.Fatal("overwriting the same key reported an eviction")
	}
	if v, ok := c.Lookup(fp); !ok || v {
		t.Fatalf("overwrite lost: v=%v ok=%v", v, ok)
	}
	// A colliding key (same slot, different tag) evicts.
	fp2 := Fp{Hi: 0x1111111111111110, Lo: fp.Lo}
	if !c.Store(fp2, true) {
		t.Fatal("eviction not reported")
	}
	if _, ok := c.Lookup(fp); ok {
		t.Fatal("evicted key still present")
	}
}

// TestFeasCacheStaleSlotAnswers: nothing retires a slot but a colliding
// store. A verdict stored at one activation still answers, with its
// stored truth, when the same relative state recurs many activations
// later, across probes of other states in between.
func TestFeasCacheStaleSlotAnswers(t *testing.T) {
	pr := Probe{Cache: NewFeasCache(0)}
	probe := func(now, rem float64) bool {
		var l EntryList
		l.Insert(now, Entry{ReadyAt: now, Deadline: now + 6, Rem: 2})
		l.Insert(now, Entry{ReadyAt: now + 1.5, Deadline: now + 4, Rem: rem})
		return l.Feasible(true, now, &pr, nil)
	}
	// Rem 2 fits by the relative deadline 4; rem 3.5 does not.
	for _, c := range []struct {
		rem  float64
		want bool
	}{{2, true}, {3.5, false}} {
		pr.Hits, pr.Misses = 0, 0
		if got := probe(10, c.rem); got != c.want || pr.Misses != 1 {
			t.Fatalf("rem %v: first probe %v (want %v), misses %d", c.rem, got, c.want, pr.Misses)
		}
		for act := 1; act <= 200; act++ {
			now := 10 + float64(act)*0.25
			probe(now, 0.5+float64(act%7)*0.125) // other states in between
			before := pr.Hits
			if got := probe(now, c.rem); got != c.want || pr.Hits != before+1 {
				t.Fatalf("rem %v activation %d: got %v (want %v), hit=%v",
					c.rem, act, got, c.want, pr.Hits == before+1)
			}
		}
	}
}

// TestFeasCacheNil: Lookup and Store are nil-safe.
func TestFeasCacheNil(t *testing.T) {
	var c *FeasCache
	if _, ok := c.Lookup(Fp{Hi: 1, Lo: 1}); ok {
		t.Fatal("nil cache hit")
	}
	if c.Store(Fp{Hi: 1, Lo: 1}, true) {
		t.Fatal("nil cache evicted")
	}
}

// TestFeasibleCacheFrontsEDFOnly: a probe of a list without future
// releases is the direct cumulative scan and leaves the cache alone — no
// hit, no miss, no slot written — while a list with a future release is
// looked up, simulated and stored on the first probe and answered from
// the table on the second, with the same verdict.
func TestFeasibleCacheFrontsEDFOnly(t *testing.T) {
	const now = 4.0
	c := NewFeasCache(64)
	pr := Probe{Cache: c}
	var l EntryList
	l.Insert(now, Entry{ReadyAt: now, Deadline: now + 10, Rem: 3})
	l.Insert(now, Entry{ReadyAt: now, Deadline: now + 6, Rem: 2})
	want := FeasibleSorted(now, l.Entries())
	for i := 0; i < 3; i++ {
		if got := l.Feasible(true, now, &pr, nil); got != want {
			t.Fatalf("scan probe %d: %v, want %v", i, got, want)
		}
	}
	if pr.Hits != 0 || pr.Misses != 0 {
		t.Fatalf("scan probes counted hits=%d misses=%d", pr.Hits, pr.Misses)
	}
	for i := range c.slots {
		if c.slots[i] != 0 {
			t.Fatalf("scan probe wrote slot %d", i)
		}
	}

	l.Insert(now, Entry{ReadyAt: now + 1.5, Deadline: now + 8, Rem: 1})
	want = ResourceFeasible(true, now, append([]Entry(nil), l.Entries()...), nil)
	if got := l.Feasible(true, now, &pr, nil); got != want || pr.Hits != 0 || pr.Misses != 1 {
		t.Fatalf("first EDF probe: %v (want %v), hits=%d misses=%d", got, want, pr.Hits, pr.Misses)
	}
	if ok, hit := c.Lookup(l.fingerprint(true, now)); !hit || ok != want {
		t.Fatalf("EDF verdict not stored: hit=%v ok=%v", hit, ok)
	}
	if got := l.Feasible(true, now, &pr, nil); got != want || pr.Hits != 1 || pr.Misses != 1 {
		t.Fatalf("second EDF probe: %v (want %v), hits=%d misses=%d", got, want, pr.Hits, pr.Misses)
	}
}

// FuzzFeasCacheMatchesDirect: random entry lists, some with future
// releases and some pinned, probed at shifting activation times through
// one Probe whose 64-slot cache forces collisions and answers from slots
// stored at earlier activations. Every verdict must equal the uncached
// check. States recur by drawing from a small pool of relative states;
// times lie on a 1/16 grid, so shifting a state is exact in float64 and
// the test isolates the cache from the rounding at the Eps boundary that
// DESIGN.md §7.2 accepts.
func FuzzFeasCacheMatchesDirect(f *testing.F) {
	for _, seed := range []uint64{1, 2, 3, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		r := rng.New(seed)
		grid := func(lo, hi int) float64 { return float64(lo+r.Intn(hi-lo+1)) / 16 }
		randState := func() []Entry {
			rel := make([]Entry, 1+r.Intn(6))
			for i := range rel {
				rel[i] = Entry{Deadline: grid(16, 400), Rem: grid(8, 80)}
				if r.Float64() < 0.3 {
					rel[i].ReadyAt = grid(1, 80)
				}
				rel[i].PinnedFirst = r.Float64() < 0.15
			}
			return rel
		}
		pool := make([][]Entry, 40)
		for i := range pool {
			pool[i] = randState()
		}
		pr := Probe{Cache: NewFeasCache(64)}
		var direct EDFScratch
		var l EntryList
		probes := int64(0)
		for act := 0; act < 60; act++ {
			now := grid(0, 1<<16)
			for k := 0; k < 12; k++ {
				rel := pool[r.Intn(len(pool))]
				if r.Float64() < 0.2 {
					rel = randState()
				}
				l.Reset()
				for _, e := range rel {
					l.Insert(now, Entry{ReadyAt: now + e.ReadyAt, Deadline: now + e.Deadline, Rem: e.Rem, PinnedFirst: e.PinnedFirst})
				}
				pre := r.Float64() < 0.5
				want := l.check(pre, now, &direct, nil)
				if got := l.Feasible(pre, now, &pr, nil); got != want {
					t.Fatalf("activation %d probe %d at t=%v: cached verdict %v, direct %v (entries %+v)",
						act, k, now, got, want, l.entries)
				}
				if l.future > 0 {
					probes++
				}
			}
		}
		if pr.Hits+pr.Misses != probes || pr.Evictions > pr.Misses {
			t.Fatalf("counts: hits %d + misses %d, want %d EDF probes; evictions %d",
				pr.Hits, pr.Misses, probes, pr.Evictions)
		}
	})
}
