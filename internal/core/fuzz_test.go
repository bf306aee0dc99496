package core

import (
	"math"
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
				got := solveWithPlan(h, p)
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

// FuzzJobTermsMatchCPM pins the cost terms place hoists once per solve
// (jobTerms) to the Job methods both candidate sources used to call per
// (job, resource) pair: executable agrees with Type.ExecutableOn on every
// resource id, in range or not, and on every executable resource cpm and
// epm equal Job.CPM and Job.EPM bit for bit — for any remaining fraction,
// migration debt and start state, any current resource (Unmapped
// included), under both migration policies.
func FuzzJobTermsMatchCPM(f *testing.F) {
	f.Add(uint64(1), 1.0, 0.0, false, int8(0), false)
	f.Add(uint64(7), 0.37, 0.25, true, int8(3), false)
	f.Add(uint64(9), 0.5, 1.5, false, int8(1), true)
	f.Add(uint64(4), 0.0, 0.8, true, int8(-2), true)
	f.Fuzz(func(t *testing.T, seed uint64, frac, debt float64, started bool, res int8, always bool) {
		r := rng.New(seed)
		n := 1 + int(seed%9)
		ty := &task.Type{
			WCET:      make([]float64, n),
			Energy:    make([]float64, n),
			MigTime:   r.Uniform(0, 3),
			MigEnergy: r.Uniform(0, 3),
		}
		for i := range n {
			ty.WCET[i], ty.Energy[i] = task.NotExecutable, task.NotExecutable
			if r.Float64() < 0.75 {
				ty.WCET[i], ty.Energy[i] = r.Uniform(0.1, 20), r.Uniform(0.1, 30)
			}
		}
		j := sched.NewJob(1, ty, r.Uniform(0, 50), r.Uniform(1, 100))
		j.Frac, j.MigDebt, j.Started = frac, debt, started
		j.Resource = int(uint8(res))%(n+1) - 1 // Unmapped .. n-1
		pol := sched.ChargeStartedOnly
		if always {
			pol = sched.ChargeAlways
		}
		now := r.Uniform(0, 60)

		jt := newJobTerms(j, now, pol)
		if math.Float64bits(jt.tl) != math.Float64bits(j.TimeLeft(now)) {
			t.Fatalf("t_left %v, Job.TimeLeft %v", jt.tl, j.TimeLeft(now))
		}
		for q := -1; q <= n; q++ {
			if got, want := jt.executable(q), ty.ExecutableOn(q); got != want {
				t.Fatalf("resource %d: executable %v, ExecutableOn %v", q, got, want)
			}
			if !ty.ExecutableOn(q) {
				continue
			}
			if got, want := jt.cpm(q), j.CPM(q, pol); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("resource %d (job on %d, %v): cpm %v, Job.CPM %v", q, j.Resource, pol, got, want)
			}
			if got, want := jt.epm(q), j.EPM(q, pol); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("resource %d (job on %d, %v): epm %v, Job.EPM %v", q, j.Resource, pol, got, want)
			}
		}
	})
}
