package core

import (
	"reflect"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

// FuzzHeuristicMatchesReference drives Solve on both candidate sources —
// platforms of 1 to 80 resources, so both sides of indexedMinResources —
// against the seed implementation. For every problem it asserts that the
// decision equals referenceSolve bit for bit, that it is unchanged with a
// ProvRecorder attached and with a FeasCache, and that the recorder holds
// exactly one chosen verdict per placed job, on its mapped resource.
//
// The seed corpus (testdata/fuzz) runs with every `go test`; explore
// further with: go test ./internal/core -run '^$' -fuzz FuzzHeuristicMatchesReference
func FuzzHeuristicMatchesReference(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, cpus, gpus uint8, greedy bool) {
		// At least one CPU (the task generator derives GPU figures from the
		// CPU ones); at most 72c8g = 80 resources.
		plat := platform.New(1+int(cpus)%72, int(gpus)%9)
		cfg := task.DefaultGenConfig()
		cfg.NumTypes = 20
		set, err := task.Generate(plat, cfg, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		plain := &Heuristic{Greedy: greedy}
		cached := &Heuristic{Greedy: greedy, Cache: sched.NewFeasCache(0)}
		rec := telemetry.NewProvRecorder()
		recorded := &Heuristic{Greedy: greedy}
		recorded.AttachProvenance(rec)

		r := rng.New(seed ^ 0x9e3779b97f4a7c15)
		for trial := 0; trial < 4; trial++ {
			p := bigProblem(r, plat, set, float64(trial)*60)
			want := referenceSolve(p, greedy)
			rec.Reset()
			for name, h := range map[string]*Heuristic{"plain": plain, "cache": cached, "provenance": recorded} {
				got := h.Solve(p)
				if got.Feasible != want.Feasible || got.Energy != want.Energy ||
					!reflect.DeepEqual(got.Mapping, want.Mapping) {
					t.Fatalf("%s trial %d on %s: got %+v, reference %+v",
						name, trial, plat.Spec(), got, want)
				}
			}

			chosen := make(map[int][]int)
			for _, c := range rec.Snapshot().Candidates {
				if c.Verdict == telemetry.VerdictChosen {
					chosen[c.Job] = append(chosen[c.Job], c.Res)
				}
			}
			for i, j := range p.Jobs {
				placed := want.Mapping[i] != sched.Unmapped && !j.Fixed && !j.Pinned(plat)
				switch got := chosen[j.ID]; {
				case placed && (len(got) != 1 || got[0] != want.Mapping[i]):
					t.Fatalf("trial %d on %s: job %d placed on %d, chosen verdicts %v",
						trial, plat.Spec(), j.ID, want.Mapping[i], got)
				case !placed && len(got) != 0:
					t.Fatalf("trial %d on %s: unplaced job %d has chosen verdicts %v",
						trial, plat.Spec(), j.ID, got)
				}
			}
		}
	})
}
