package experiments

import (
	"testing"

	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sim"
	"predrm/internal/task"
	"predrm/internal/trace"
)

// TestMechanismSweep (dev aid): where does the prediction benefit emerge
// as a function of load?
func TestMechanismSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("dev aid")
	}
	plat := platform.Default()
	root := rng.New(42)
	set, err := task.Generate(plat, task.DefaultGenConfig(), root.Split())
	if err != nil {
		t.Fatal(err)
	}
	for _, ia := range []float64{1.2, 2.0, 3.0, 4.5, 6.0} {
		gcfg := trace.GenConfig{Length: 100, InterarrivalMean: ia, InterarrivalStd: ia / 3, Tightness: trace.VeryTight}
		var offSum, onSum float64
		const n = 4
		for i := 0; i < n; i++ {
			tr, err := trace.Generate(set, gcfg, root.Split())
			if err != nil {
				t.Fatal(err)
			}
			cfg := engine.Config{Platform: plat, TaskSet: set, Solver: &core.Heuristic{}}
			off, err := sim.Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			o, err := predict.NewOracle(tr, predict.OracleConfig{TypeAccuracy: 1, NumTypes: set.Len(), Seed: uint64(i)})
			if err != nil {
				t.Fatal(err)
			}
			cfg.Predictor = o
			on, err := sim.Run(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			offSum += off.RejectionPct()
			onSum += on.RejectionPct()
		}
		t.Logf("ia=%.1f  off %.2f%%  on %.2f%%  benefit %.2fpp", ia, offSum/n, onSum/n, (offSum-onSum)/n)
	}
}
