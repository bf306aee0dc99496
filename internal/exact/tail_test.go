package exact

import (
	"sync"
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/sim"
	"predrm/internal/task"
	"predrm/internal/trace"
)

// tailMinNodes is the plain-bound node count from which an activation
// belongs to the tail corpus.
const tailMinNodes = 10_000

// tailRecorder is the engine's solver while the tail corpus is drawn: the
// plain search, cold, with a node limit no activation of the run reaches,
// so its decisions are the exact optima any completed solve returns. It
// keeps a copy of every problem that needs at least tailMinNodes nodes.
type tailRecorder struct {
	plain     Optimal
	problems  []*sched.Problem
	decisions []core.Decision
}

func (t *tailRecorder) Solve(p *sched.Problem) core.Decision {
	d := t.plain.solve(p, 0)
	if t.plain.LastStats.Truncated {
		panic("tail corpus: plain search truncated")
	}
	if t.plain.LastStats.Nodes >= tailMinNodes {
		q := *p
		q.Jobs = make([]*sched.Job, len(p.Jobs))
		for i, j := range p.Jobs {
			c := *j
			q.Jobs[i] = &c
		}
		t.problems = append(t.problems, &q)
		t.decisions = append(t.decisions, d)
	}
	return d
}

var tailOnce struct {
	sync.Once
	problems  []*sched.Problem
	decisions []core.Decision
	err       error
}

// tailCorpus regenerates the exact solver's tail: the activations of
// rmsim -engine milp -predict -len 1000 -seed 1 -interarrival 2.2 (the
// paper's 5c1g VT setup) on which the plain bound expands at least
// tailMinNodes nodes, with the plain search's decision on each. The run
// is deterministic, so every call on every host yields the same 45
// problems.
func tailCorpus(tb testing.TB) ([]*sched.Problem, []core.Decision) {
	tb.Helper()
	tailOnce.Do(func() {
		root := rng.New(1)
		tcfg := task.DefaultGenConfig()
		tcfg.NumTypes = 100
		set, err := task.Generate(platform.Default(), tcfg, root.Split())
		if err != nil {
			tailOnce.err = err
			return
		}
		tr, err := trace.Generate(set, trace.GenConfig{
			Length:           1000,
			InterarrivalMean: 2.2,
			InterarrivalStd:  2.2 / 3,
			Tightness:        trace.VeryTight,
		}, root.Split())
		if err != nil {
			tailOnce.err = err
			return
		}
		oracle, err := predict.NewOracle(tr, predict.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len(), Seed: 1 + 17})
		if err != nil {
			tailOnce.err = err
			return
		}
		rec := &tailRecorder{plain: Optimal{NodeLimit: 2_000_000}}
		cfg := engine.Config{Platform: set.Platform, TaskSet: set, Predictor: oracle, Solver: rec}
		if _, err := sim.Run(cfg, tr); err != nil {
			tailOnce.err = err
			return
		}
		tailOnce.problems, tailOnce.decisions = rec.problems, rec.decisions
	})
	if tailOnce.err != nil {
		tb.Fatal(tailOnce.err)
	}
	return tailOnce.problems, tailOnce.decisions
}

// TestOptimalTailNodes pins the work Solve does on the tail corpus: the
// exact node sum and largest solve, which depend on no host, and the
// decisions, which must be the plain search's. A change that loosens the
// bound (or disables pricing) fails the pin on any machine; a change that
// tightens it updates the numbers here. The plain search expands
// 2,053,429 nodes on the corpus, 260,085 in its largest solve.
func TestOptimalTailNodes(t *testing.T) {
	problems, want := tailCorpus(t)
	o := &Optimal{}
	sum, most := 0, 0
	for i, p := range problems {
		d := o.Solve(p)
		if o.LastStats.Truncated {
			t.Fatalf("problem %d truncated", i)
		}
		assertSameDecision(t, i, want[i], d)
		sum += o.LastStats.Nodes
		most = max(most, o.LastStats.Nodes)
	}
	const wantSum, wantMax = 480482, 46547
	if len(problems) != 45 || sum != wantSum || most != wantMax {
		t.Fatalf("tail corpus: %d problems, %d nodes, largest solve %d; want 45, %d, %d",
			len(problems), sum, most, wantSum, wantMax)
	}
}

// BenchmarkOptimalTail measures Solve on the tail corpus, one op per
// problem; nodes/op is the mean node count.
func BenchmarkOptimalTail(b *testing.B) {
	problems, _ := tailCorpus(b)
	o := &Optimal{}
	nodes := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.Solve(problems[i%len(problems)])
		nodes += o.LastStats.Nodes
	}
	b.ReportMetric(float64(nodes)/float64(b.N), "nodes/op")
}
