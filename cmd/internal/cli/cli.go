// Package cli holds the flag wiring the predrm commands share: the solver
// constructor behind -engine, the -solver-budget syntax and its fallback
// chain, task-set loading or generation, and the flag and report helpers.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"predrm/internal/core"
	"predrm/internal/exact"
	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

// SolverFactory returns a constructor for the named mapping engine:
// heuristic, greedy or milp. Solvers are not safe for concurrent use, so
// each call builds a fresh instance with its own warm state (an EDF probe
// cache for the heuristic engines, a warm-started search for milp); a
// sharded engine calls it once per shard. Warm state is decision-neutral:
// it only reuses the previous activation's work.
func SolverFactory(engine string) (func() core.Solver, error) {
	switch engine {
	case "heuristic", "greedy":
		return func() core.Solver {
			return &core.Heuristic{Greedy: engine == "greedy", Cache: sched.NewFeasCache(0)}
		}, nil
	case "milp":
		return func() core.Solver {
			return &exact.Optimal{WarmStart: true}
		}, nil
	}
	return nil, fmt.Errorf("unknown engine %q", engine)
}

// Budgeted wraps primary, the solver of the named engine, in the
// resilience chain: primary under budget, then the plain heuristic, then
// reject-only. A nil tracer records no solver_fallback events.
func Budgeted(engine string, primary core.Solver, budget core.Budget, tracer *telemetry.Tracer) *core.BudgetedSolver {
	return &core.BudgetedSolver{
		Stages: []core.Stage{
			{Name: engine, Solver: primary},
			{Name: "heuristic", Solver: &core.Heuristic{}},
		},
		Budget: budget,
		Tracer: tracer,
	}
}

// ParseBudget reads the -solver-budget syntax: an integer is a node
// budget, a Go duration (5ms, 1s) a wall-clock budget. Empty means no
// bound (the chain still absorbs errors).
func ParseBudget(s string) (core.Budget, error) {
	if s == "" {
		return core.Budget{}, nil
	}
	if n, err := strconv.Atoi(s); err == nil {
		if n <= 0 {
			return core.Budget{}, fmt.Errorf("node budget %d must be positive", n)
		}
		return core.Budget{Nodes: n}, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil {
		return core.Budget{}, fmt.Errorf("%q is neither a node count nor a duration", s)
	}
	if d <= 0 {
		return core.Budget{}, fmt.Errorf("wall budget %v must be positive", d)
	}
	return core.Budget{Wall: d}, nil
}

// TaskSet reads the task set written by tracegen at path or, with path
// empty, generates one of types task types on the platform spec (the
// paper's 5c1g when empty). The generator stream is split off stream on
// both paths, so what the caller draws from stream next is the same
// whether the set was loaded or generated.
func TaskSet(path, platSpec string, types int, stream *rng.Rand) (*task.Set, error) {
	gen := stream.Split()
	if path != "" {
		if platSpec != "" {
			return nil, errors.New("-platform has no effect with -taskset (the task set carries its platform)")
		}
		set, err := task.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("load task set: %w", err)
		}
		return set, nil
	}
	plat := platform.Default()
	if platSpec != "" {
		var err error
		if plat, err = platform.Parse(platSpec); err != nil {
			return nil, fmt.Errorf("platform: %w", err)
		}
	}
	tcfg := task.DefaultGenConfig()
	tcfg.NumTypes = types
	set, err := task.Generate(plat, tcfg, gen)
	if err != nil {
		return nil, fmt.Errorf("task set: %w", err)
	}
	return set, nil
}

// PrintReasonLine renders one decision-reason histogram ("plain 12,
// prediction_dropped 3") from the counters under prefix, sorted by reason;
// nothing is printed when the histogram is empty.
func PrintReasonLine(label string, counters map[string]int64, prefix string) {
	var reasons []string
	for name := range counters {
		if strings.HasPrefix(name, prefix) {
			reasons = append(reasons, strings.TrimPrefix(name, prefix))
		}
	}
	if len(reasons) == 0 {
		return
	}
	sort.Strings(reasons)
	parts := make([]string, len(reasons))
	for i, r := range reasons {
		parts[i] = fmt.Sprintf("%s %d", r, counters[prefix+r])
	}
	fmt.Printf("%s%s\n", label, strings.Join(parts, ", "))
}

// FlagWasSet reports whether the named flag was given explicitly on the
// command line (flag.Visit only walks flags that were set).
func FlagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
