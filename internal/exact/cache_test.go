package exact

import (
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

// TestCacheMatchesNoCache is the cache's differential check: on wide
// problems a cached solver must return bit-identical decisions to one
// with the cache disabled.
func TestCacheMatchesNoCache(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(77)
	noCache := &Optimal{NodeLimit: 2_000_000, CacheSlots: -1}
	withCache := &Optimal{NodeLimit: 2_000_000}
	for trial := 0; trial < 40; trial++ {
		p := randomWideProblem(r, plat, set)
		nd := noCache.Solve(p)
		if noCache.LastStats.Truncated {
			continue
		}
		cd := withCache.Solve(p)
		assertSameDecision(t, trial, nd, cd)
	}
}

// TestCacheHitsAcrossActivations: the cache fronts the EDF simulation
// only. Solving a problem without a future release leaves it untouched;
// once a predicted job is added, re-solving the identical activation must
// be answered from the cross-activation cache, visibly in telemetry.
func TestCacheHitsAcrossActivations(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	o := &Optimal{}
	o.AttachMetrics(reg)
	r := rng.New(61)
	p := randomWideProblem(r, plat, set)
	plain := &sched.Problem{Platform: p.Platform, Time: p.Time, Policy: p.Policy}
	for _, j := range p.Jobs {
		if !j.Predicted {
			plain.Jobs = append(plain.Jobs, j)
		}
	}
	o.Solve(plain)
	if h, m := reg.Counter("exact.cache.hits").Value(), reg.Counter("exact.cache.misses").Value(); h != 0 || m != 0 {
		t.Fatalf("a problem without future releases reached the cache: hits=%d misses=%d", h, m)
	}

	jp := sched.NewJob(len(plain.Jobs), set.Type(0), p.Time+2, 60)
	jp.Predicted = true
	pred := &sched.Problem{Platform: p.Platform, Time: p.Time, Policy: p.Policy,
		Jobs: append(append([]*sched.Job(nil), plain.Jobs...), jp)}
	d1 := o.Solve(pred)
	firstHits := reg.Counter("exact.cache.hits").Value()
	if reg.Counter("exact.cache.misses").Value() == 0 {
		t.Fatal("no EDF-simulation probes reached the cache")
	}
	d2 := o.Solve(pred)
	assertSameDecision(t, 0, d1, d2)
	hits := reg.Counter("exact.cache.hits").Value()
	if hits <= firstHits {
		t.Fatalf("re-solving an identical activation gained no cache hits (%d -> %d)", firstHits, hits)
	}
	misses := reg.Counter("exact.cache.misses").Value()
	if rate := float64(hits) / float64(hits+misses); rate <= 0 || rate > 1 {
		t.Fatalf("hit rate %v outside (0,1]", rate)
	}
}

// TestCacheDisabled: CacheSlots < 0 must bypass the cache entirely and keep
// its instruments silent.
func TestCacheDisabled(t *testing.T) {
	plat := platform.Default()
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	o := &Optimal{CacheSlots: -1}
	o.AttachMetrics(reg)
	r := rng.New(61)
	for trial := 0; trial < 10; trial++ {
		o.Solve(randomSmallProblem(r, plat, set))
	}
	if h, m := reg.Counter("exact.cache.hits").Value(), reg.Counter("exact.cache.misses").Value(); h != 0 || m != 0 {
		t.Fatalf("disabled cache counted probes: hits=%d misses=%d", h, m)
	}
}
