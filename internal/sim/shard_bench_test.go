package sim

import (
	"fmt"
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/trace"
)

// BenchmarkShardedRun is the scale-out scaling curve: per-activation
// admission cost as the platform grows, with load held proportional to
// capacity and shard size held at ~9 resources. Sublinear growth of
// ns/activation with platform size is the point — the indexed candidate
// scan keeps per-shard solves cheap and routing is O(log shards).
//
// Recorded in BENCH.json as NEW entries, not gated: the numbers are
// multicore (concurrent shard solves) and the bench box is one core, so
// run-to-run noise swamps a ±15% gate (see BENCH.md).
func BenchmarkShardedRun(b *testing.B) {
	for _, tc := range []struct {
		spec   string
		shards int
	}{
		{"8c1g", 1},
		{"16c2g", 2},
		{"32c4g", 4},
		{"64c8g", 8},
		{"112c16g", 14},
	} {
		b.Run(fmt.Sprintf("%s-x%d", tc.spec, tc.shards), func(b *testing.B) {
			plat, err := platform.Parse(tc.spec)
			if err != nil {
				b.Fatal(err)
			}
			root := rng.New(97)
			tcfg := task.DefaultGenConfig()
			if min := 2 * plat.Len(); tcfg.NumTypes < min {
				tcfg.NumTypes = min
			}
			set, err := task.Generate(plat, tcfg, root.Split())
			if err != nil {
				b.Fatal(err)
			}
			// Offered load proportional to capacity, as in ScaleSweep.
			ia := 2.2 * float64(platform.Default().Len()) / float64(plat.Len())
			const length = 300
			tr, err := trace.Generate(set, trace.GenConfig{
				Length:           length,
				InterarrivalMean: ia,
				InterarrivalStd:  ia / 3,
				Tightness:        trace.VeryTight,
			}, root.Split())
			if err != nil {
				b.Fatal(err)
			}
			sc := engine.ShardConfig{
				Shards:      tc.shards,
				BatchWindow: 4 * ia,
				NewSolver: func() core.Solver {
					return &core.Heuristic{Cache: sched.NewFeasCache(0)}
				},
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := RunSharded(engine.Config{Platform: plat, TaskSet: set}, sc, tr)
				if err != nil {
					b.Fatal(err)
				}
				if res.Requests != length {
					b.Fatalf("lost requests: %+v", res)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*length), "ns/activation")
		})
	}
}
