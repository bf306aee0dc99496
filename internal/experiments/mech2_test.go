package experiments

import (
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

type countingSolver struct {
	inner          core.Solver
	withPred       int
	withPredOK     int
	withoutPred    int
	withoutPredOK  int
	predOnGPU      int
	newTaskShifted int
}

func (c *countingSolver) Solve(p *sched.Problem) core.Decision {
	d := c.inner.Solve(p)
	pi := p.PredIndex()
	if pi >= 0 {
		c.withPred++
		if d.Feasible {
			c.withPredOK++
			if d.Mapping[pi] == 5 {
				c.predOnGPU++
			}
			// Compare the newest real task's mapping with the no-pred solve.
			q := p.WithoutPred()
			dq := c.inner.Solve(q)
			if dq.Feasible {
				// The arriving task is the last real job.
				last := len(q.Jobs) - 1
				if dq.Mapping[last] != d.Mapping[pi-1] && pi == len(p.Jobs)-1 {
					c.newTaskShifted++
				}
			}
		}
	} else {
		c.withoutPred++
		if d.Feasible {
			c.withoutPredOK++
		}
	}
	return d
}

func TestMechanismAdmissionPath(t *testing.T) {
	if testing.Short() {
		t.Skip("dev aid")
	}
	plat := platform.Default()
	root := rng.New(42)
	set, err := task.Generate(plat, task.DefaultGenConfig(), root.Split())
	if err != nil {
		t.Fatal(err)
	}
	gcfg := trace.GenConfig{Length: 100, InterarrivalMean: 3, InterarrivalStd: 1, Tightness: trace.VeryTight}
	cs := &countingSolver{inner: &core.Heuristic{}}
	var rej float64
	const n = 4
	for i := 0; i < n; i++ {
		tr, err := trace.Generate(set, gcfg, root.Split())
		if err != nil {
			t.Fatal(err)
		}
		o, err := predict.NewOracle(tr, predict.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len(), Seed: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(engine.Config{Platform: plat, TaskSet: set, Solver: cs, Predictor: o}, tr)
		if err != nil {
			t.Fatal(err)
		}
		rej += res.RejectionPct()
	}
	t.Logf("rej %.2f%%", rej/n)
	t.Logf("with-pred solves: %d (ok %d = %.0f%%), pred->GPU %d, new-task shifted by pred %d",
		cs.withPred, cs.withPredOK, 100*float64(cs.withPredOK)/float64(cs.withPred), cs.predOnGPU, cs.newTaskShifted)
	t.Logf("fallback solves: %d (ok %d)", cs.withoutPred, cs.withoutPredOK)
}
