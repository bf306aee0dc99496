package sim

import (
	"predrm/internal/engine"
	"predrm/internal/sched"
	"predrm/internal/trace"
)

// ShardConfig parameterises a scale-out run (alias of the engine's).
type ShardConfig = engine.ShardConfig

// RunSharded simulates tr on a sharded platform: arrivals are grouped
// into batch epochs of sc.BatchWindow engine-time units (0 keeps the
// paper's one-by-one admission) and each epoch is admitted through
// engine.Sharded — routed across the shards and solved per shard.
//
// With one shard and a zero window this is byte-identical to Run: the
// sharded engine delegates to a bare Engine, whose Activate is the
// one-request epoch of the same activation path ActivateEpoch runs.
// TestShardedOneShardMatchesUnsharded pins the equivalence, and golden
// files pin the batched path (TestBatchEpochGolden) and 4-shard
// one-by-one admission (TestShardedWindowZeroGolden).
func RunSharded(cfg Config, sc ShardConfig, tr *trace.Trace) (*Result, error) {
	if err := tr.Validate(cfg.TaskSet); err != nil {
		return nil, err
	}
	eng, err := engine.NewSharded(cfg, sc)
	if err != nil {
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
	if err := eng.Drain(); err != nil {
		return nil, err
	}
	return eng.Finalize(), nil
}
