// Package sim drives a request trace through the platform and a resource
// manager: the discrete-event simulation behind every experiment in the
// paper's evaluation (Sec 5).
//
// sim is a virtual-clock driver of the activation engine
// (internal/engine): RunSharded walks the trace and hands each request
// to the engine's Activate, which advances engine time to the arrival,
// charges the prediction/decision overhead (Sec 5.5), builds the
// S̄ problem (active jobs + arriving job + optional predicted job), runs
// the admission protocol, applies the resulting mapping (charging
// migrations), and continues. The wall-clock server (internal/serve)
// drives the very same engine from real time; DESIGN.md §11 states the
// equivalence argument, and internal/serve's differential test enforces
// it byte for byte.
package sim

import (
	"predrm/internal/engine"
	"predrm/internal/sched"
	"predrm/internal/trace"
)

// Run simulates tr under cfg on the unpartitioned engine, admitting one
// request at a time. The trace must be valid against cfg.TaskSet.
func Run(cfg engine.Config, tr *trace.Trace) (*engine.Result, error) {
	return RunSharded(cfg, engine.ShardConfig{}, tr)
}

// RunSharded simulates tr on the engine engine.NewSharded builds for sc:
// arrivals are grouped into batch epochs of sc.BatchWindow engine-time
// units (0 keeps the paper's one-by-one admission) and each epoch is
// admitted at once — with more than one shard, routed across the shards
// and solved per shard. The configuration is checked before the trace.
//
// With one shard NewSharded returns the bare Engine, so a zero window is
// Run. TestShardedOneShardMatchesUnsharded pins that against a loop of
// its own, and golden files pin the batched path (TestBatchEpochGolden)
// and 4-shard one-by-one admission (TestShardedWindowZeroGolden).
func RunSharded(cfg engine.Config, sc engine.ShardConfig, tr *trace.Trace) (*engine.Result, error) {
	eng, err := engine.NewSharded(cfg, sc)
	if err != nil {
		return nil, err
	}
	if err := tr.Validate(cfg.TaskSet); err != nil {
		return nil, err
	}
	reqs := tr.Requests
	for i := 0; i < len(reqs); {
		if sc.BatchWindow <= 0 {
			if _, err := eng.Activate(i, reqs[i]); err != nil {
				return nil, err
			}
			i++
			continue
		}
		// Epoch: the maximal run of arrivals within BatchWindow of the
		// first; it closes when the window ends (or at the last arrival,
		// if a request landed exactly on the boundary past it).
		first := reqs[i].Arrival
		j := i + 1
		for j < len(reqs) && reqs[j].Arrival <= first+sc.BatchWindow+sched.Eps {
			j++
		}
		close := first + sc.BatchWindow
		if last := reqs[j-1].Arrival; last > close {
			close = last
		}
		if _, err := eng.ActivateEpoch(i, reqs[i:j], close); err != nil {
			return nil, err
		}
		i = j
	}
	// Drain: run every admitted job to completion.
	if err := eng.Drain(); err != nil {
		return nil, err
	}
	return eng.Finalize(), nil
}
