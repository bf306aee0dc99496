package sched

import (
	"sync"
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
		a.EnableFingerprint(now)
		b.EnableFingerprint(now)
		for _, e := range entries {
			a.Insert(now, e)
		}
		// Insert into b in reverse order: same multiset, different history.
		for i := n - 1; i >= 0; i-- {
			b.Insert(now, entries[i])
		}
		if a.FeasFingerprint(true) != b.FeasFingerprint(true) {
			t.Fatalf("trial %d: same multiset, different fingerprints", trial)
		}
		if a.FeasFingerprint(true) == a.FeasFingerprint(false) {
			t.Fatalf("trial %d: preemption mode not part of the key", trial)
		}
		// A duplicated entry must not cancel out of the digest.
		dup := entries[r.Intn(n)]
		pos1 := a.Insert(now, dup)
		pos2 := a.Insert(now, dup)
		with2 := a.FeasFingerprint(true)
		a.Remove(now, pos2)
		with1 := a.FeasFingerprint(true)
		a.Remove(now, pos1)
		back := a.FeasFingerprint(true)
		if with2 == back || with1 == back || with2 == with1 {
			t.Fatalf("trial %d: duplicate entries collapsed in the digest", trial)
		}
		if back != b.FeasFingerprint(true) {
			t.Fatalf("trial %d: insert/remove did not restore the digest", trial)
		}
	}
}

// TestFingerprintChurn: under an arbitrary interleaving of Insert and
// Remove — the exact access pattern of the repair path, which retains a
// previous mapping and then trial-places the delta — the incrementally
// maintained digest must at every step equal the digest of a fresh list
// rebuilt from the surviving multiset. A divergence here would silently
// poison the cross-activation feasibility cache.
func TestFingerprintChurn(t *testing.T) {
	r := rng.New(1234)
	now := 17.25
	for trial := 0; trial < 50; trial++ {
		var l EntryList
		l.EnableFingerprint(now)
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
			fresh.EnableFingerprint(now)
			for _, e := range live {
				fresh.Insert(now, e)
			}
			for _, pre := range []bool{false, true} {
				if l.FeasFingerprint(pre) != fresh.FeasFingerprint(pre) {
					t.Fatalf("trial %d step %d preemptable=%v: incremental digest diverged from rebuilt list (%d live entries)",
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
	a.EnableFingerprint(10)
	b.EnableFingerprint(500)
	for _, rel := range []struct{ ready, dl, rem float64 }{
		{0, 20, 5}, {3.5, 40, 7.25}, {0, 12.5, 1},
	} {
		a.Insert(10, Entry{ReadyAt: 10 + rel.ready, Deadline: 10 + rel.dl, Rem: rel.rem})
		b.Insert(500, Entry{ReadyAt: 500 + rel.ready, Deadline: 500 + rel.dl, Rem: rel.rem})
	}
	if a.FeasFingerprint(true) != b.FeasFingerprint(true) {
		t.Fatal("time-shifted identical relative state produced different keys")
	}
}

// TestCopyFrom: the copy must be deep (mutations independent) and carry
// counters and fingerprint state.
func TestCopyFrom(t *testing.T) {
	r := rng.New(7)
	now := 5.0
	var src EntryList
	src.EnableFingerprint(now)
	for i := 0; i < 8; i++ {
		src.Insert(now, randEntry(r, now))
	}
	var dst EntryList
	dst.CopyFrom(&src)
	if err := dst.Invariant(now); err != nil {
		t.Fatal(err)
	}
	if dst.Len() != src.Len() || dst.Future() != src.Future() {
		t.Fatalf("copy mismatch: len %d/%d future %d/%d", dst.Len(), src.Len(), dst.Future(), src.Future())
	}
	if dst.FeasFingerprint(true) != src.FeasFingerprint(true) {
		t.Fatal("fingerprint not carried by CopyFrom")
	}
	// Mutating the copy must not disturb the source.
	before := src.FeasFingerprint(true)
	dst.Insert(now, randEntry(r, now))
	if src.FeasFingerprint(true) != before || src.Len() == dst.Len() {
		t.Fatal("CopyFrom aliases the source storage")
	}
	// And a second CopyFrom resets the destination.
	dst.CopyFrom(&src)
	if dst.FeasFingerprint(true) != before {
		t.Fatal("repeated CopyFrom did not restore the source state")
	}
}

// TestFeasCacheBasics: store/lookup round-trips, unknown keys miss, and
// the sweep retires entries that stop being touched.
func TestFeasCacheBasics(t *testing.T) {
	c := NewFeasCache(64)
	fp := Fp{Hi: 0xdeadbeefcafef00d, Lo: 0x12345}
	if _, ok := c.Lookup(fp); ok {
		t.Fatal("hit on an empty cache")
	}
	c.Store(fp, true)
	if v, ok := c.Lookup(fp); !ok || !v {
		t.Fatalf("lookup after store: v=%v ok=%v", v, ok)
	}
	c.Store(fp, false) // same key, updated verdict (cannot happen in use, but must not corrupt)
	if v, ok := c.Lookup(fp); !ok || v {
		t.Fatalf("overwrite lost: v=%v ok=%v", v, ok)
	}
	// A colliding key (same slot, different tag) evicts.
	fp2 := Fp{Hi: 0x1111111111111110, Lo: fp.Lo}
	c.Store(fp2, true)
	if _, ok := c.Lookup(fp); ok {
		t.Fatal("evicted key still present")
	}
	if s := c.Stats(); s.Evictions == 0 {
		t.Fatal("eviction not counted")
	}
	// Epoch sweep: untouched entries die after TTLEpochs+slack advances.
	for i := 0; i < TTLEpochs+3; i++ {
		c.Advance()
	}
	if _, ok := c.Lookup(fp2); ok {
		t.Fatal("sweep did not retire a stale entry")
	}
	if s := c.Stats(); s.Swept == 0 {
		t.Fatal("sweep not counted")
	}
}

// TestFeasCacheKeepsHotEntries: a key touched every epoch survives far
// beyond the TTL.
func TestFeasCacheKeepsHotEntries(t *testing.T) {
	c := NewFeasCache(64)
	fp := Fp{Hi: 0xabcdef, Lo: 7}
	c.Store(fp, true)
	for i := 0; i < 4*TTLEpochs; i++ {
		c.Advance()
		if _, ok := c.Lookup(fp); !ok {
			t.Fatalf("hot entry retired at epoch %d", i)
		}
	}
}

// TestFeasCacheConcurrent hammers one cache from several goroutines under
// the race detector: concurrent Lookup/Store on overlapping keys must stay
// safe, and any hit must return the stored truth for that key (keys encode
// their verdict here so a cross-key corruption is detectable).
func TestFeasCacheConcurrent(t *testing.T) {
	c := NewFeasCache(256)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			r := rng.New(seed)
			for i := 0; i < 20000; i++ {
				k := uint64(r.Intn(512))
				// Verdict derived from the key: hits are verifiable.
				want := k%3 == 0
				fp := Fp{Hi: mix64(k) &^ 1, Lo: mix64(k ^ 0x5bd1e995)}
				if v, ok := c.Lookup(fp); ok && v != want {
					panic("cache returned a verdict for the wrong key")
				}
				c.Store(fp, want)
			}
		}(uint64(w + 1))
	}
	wg.Wait()
	c.AddStats(10, 5)
	if s := c.Stats(); s.Hits != 10 || s.Misses != 5 || s.HitRate() < 0.6 || s.HitRate() > 0.7 {
		t.Fatalf("stats: %+v rate %v", s, s.HitRate())
	}
}

// TestFeasCacheNil: every method must be nil-safe so a disabled cache
// costs one branch.
func TestFeasCacheNil(t *testing.T) {
	var c *FeasCache
	if _, ok := c.Lookup(Fp{Hi: 1, Lo: 1}); ok {
		t.Fatal("nil cache hit")
	}
	c.Store(Fp{Hi: 1, Lo: 1}, true)
	c.Advance()
	c.AddStats(1, 1)
	if s := c.Stats(); s != (CacheStats{}) {
		t.Fatalf("nil stats: %+v", s)
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
	l.EnableFingerprint(now)
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
		if c.slots[i].Load() != 0 {
			t.Fatalf("scan probe wrote slot %d", i)
		}
	}

	l.Insert(now, Entry{ReadyAt: now + 1.5, Deadline: now + 8, Rem: 1})
	want = ResourceFeasible(true, now, append([]Entry(nil), l.Entries()...), nil)
	if got := l.Feasible(true, now, &pr, nil); got != want || pr.Hits != 0 || pr.Misses != 1 {
		t.Fatalf("first EDF probe: %v (want %v), hits=%d misses=%d", got, want, pr.Hits, pr.Misses)
	}
	if ok, hit := c.Lookup(l.FeasFingerprint(true)); !hit || ok != want {
		t.Fatalf("EDF verdict not stored: hit=%v ok=%v", hit, ok)
	}
	if got := l.Feasible(true, now, &pr, nil); got != want || pr.Hits != 1 || pr.Misses != 1 {
		t.Fatalf("second EDF probe: %v (want %v), hits=%d misses=%d", got, want, pr.Hits, pr.Misses)
	}
}
