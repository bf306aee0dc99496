package main

import (
	"runtime"
	"strings"

	"predrm/internal/metrics"
	"predrm/internal/telemetry"
)

// Per-layer metrics, one function per workload: each reports the layers
// that workload is designated to measure (README.md maps every metric to
// the end-to-end metric it should move). Spans come from the benchmark's
// own wrappers around public calls; registry counters from the solvers'
// instruments attached in the traced run only.

// durationsUS returns the durations in µs of the spans named name.
func durationsUS(spans []span, name string) []float64 {
	var xs []float64
	for _, s := range spans {
		if s.Name == name {
			xs = append(xs, float64(s.dur())/1e3)
		}
	}
	return xs
}

// count returns how many spans are named name and how many of those are OK.
func count(spans []span, name string) (n, ok int) {
	for _, s := range spans {
		if s.Name == name {
			n++
			if s.OK {
				ok++
			}
		}
	}
	return n, ok
}

// total returns the summed duration in µs of the spans named name.
func total(spans []span, name string) float64 {
	t := 0.0
	for _, s := range spans {
		if s.Name == name {
			t += float64(s.dur()) / 1e3
		}
	}
	return t
}

// ratio returns a/(a+b) of two registry counters, or 0 with no events.
func ratio(reg *telemetry.Registry, a, b string) float64 {
	x, y := reg.Counter(a).Value(), reg.Counter(b).Value()
	if x+y == 0 {
		return 0
	}
	return float64(x) / float64(x+y)
}

func heuristicLayers(t *tracedPass) map[string]float64 {
	self := selfTimes(t.spans)
	var activateSelf []float64
	predictUS := map[int]float64{} // activate span → its predictor time
	for i, s := range t.spans {
		switch {
		case s.Name == "engine.activate":
			activateSelf = append(activateSelf, float64(self[i])/1e3)
			predictUS[i] += 0
		case strings.HasPrefix(s.Name, "predict.") && s.Parent >= 0:
			predictUS[s.Parent] += float64(s.dur()) / 1e3
		}
	}
	var perDecision []float64
	for _, v := range predictUS {
		perDecision = append(perDecision, v)
	}
	advance := durationsUS(t.spans, "engine.advance")
	solve := durationsUS(t.spans, "core.solve")
	activations, _ := count(t.spans, "engine.activate")
	solves, feasible := count(t.spans, "core.solve")
	_, forecasts := count(t.spans, "predict.forecast")
	return map[string]float64{
		"engine.activate_self_us.p50":    percentile(activateSelf, 0.50),
		"engine.activate_self_us.p99":    percentile(activateSelf, 0.99),
		"engine.advance_us.p50":          percentile(advance, 0.50),
		"engine.advance_us.p99":          percentile(advance, 0.99),
		"engine.drain_ms":                median(durationsUS(t.spans, "engine.drain")) / 1e3,
		"core.solve_us.p50":              percentile(solve, 0.50),
		"core.solve_us.p99":              percentile(solve, 0.99),
		"core.solves_per_decision":       float64(solves) / float64(activations),
		"core.feasible_ratio":            float64(feasible) / float64(solves),
		"core.solve_share":               total(t.spans, "core.solve") / total(t.spans, "engine.activate"),
		"core.cache_hit_ratio":           ratio(t.reg, "core.cache.hits", "core.cache.misses"),
		"predict.us.p50":                 percentile(perDecision, 0.50),
		"predict.us.p99":                 percentile(perDecision, 0.99),
		"predict.forecasts_per_decision": float64(forecasts) / float64(activations),
	}
}

func exactLayers(t *tracedPass) map[string]float64 {
	var nodes, jobs []float64
	for _, s := range t.spans {
		if s.Name == "exact.solve" {
			nodes = append(nodes, float64(s.Nodes))
			jobs = append(jobs, float64(s.Jobs))
		}
	}
	solve := durationsUS(t.spans, "exact.solve")
	solves := float64(t.reg.Counter("exact.solves").Value())
	return map[string]float64{
		"exact.solve_us.p50":         percentile(solve, 0.50),
		"exact.solve_us.p99":         percentile(solve, 0.99),
		"exact.nodes_per_solve.mean": metrics.Summarise(nodes).Mean,
		"exact.nodes_per_solve.p99":  percentile(nodes, 0.99),
		"engine.problem_jobs.mean":   metrics.Summarise(jobs).Mean,
		"engine.problem_jobs.p99":    percentile(jobs, 0.99),
		"exact.truncated_pct":        100 * float64(t.reg.Counter("exact.truncated").Value()) / solves,
		"exact.cache_hit_ratio":      ratio(t.reg, "exact.cache.hits", "exact.cache.misses"),
		"exact.warm_cuts_per_solve":  float64(t.reg.Counter("exact.warmstart.bound_cuts").Value()) / solves,
	}
}

func shardLayers(t *tracedPass) map[string]float64 {
	w := t.w
	workers := min(w.shards, runtime.GOMAXPROCS(0))
	// Per epoch, the solve time of each shard.
	perLane := map[int][]float64{}
	for _, s := range t.spans {
		if s.Name == "core.solve" && s.Parent >= 0 {
			lanes := perLane[s.Parent]
			if lanes == nil {
				lanes = make([]float64, w.shards)
				perLane[s.Parent] = lanes
			}
			lanes[s.Lane] += float64(s.dur()) / 1e3
		}
	}
	var busy, capacity, imbalance, serial []float64
	for i, s := range t.spans {
		if s.Name != "shard.epoch" {
			continue
		}
		epoch := float64(s.dur()) / 1e3
		lanes := perLane[i]
		sum, slowest := 0.0, 0.0
		for _, l := range lanes {
			sum += l
			slowest = max(slowest, l)
		}
		busy = append(busy, sum)
		capacity = append(capacity, epoch*float64(workers))
		if sum > 0 {
			imbalance = append(imbalance, slowest/(sum/float64(w.shards)))
		}
		serial = append(serial, epoch-slowest)
	}
	epoch := durationsUS(t.spans, "shard.epoch")
	solve := durationsUS(t.spans, "core.solve")
	return map[string]float64{
		"shard.epoch_us.p50":            percentile(epoch, 0.50),
		"shard.epoch_us.p99":            percentile(epoch, 0.99),
		"shard.requests_per_epoch.mean": float64(t.decisions) / float64(len(epoch)),
		"shard.solve_us.p50":            percentile(solve, 0.50),
		"shard.solve_us.p99":            percentile(solve, 0.99),
		"shard.parallel_efficiency":     sum(busy) / sum(capacity),
		"shard.imbalance":               metrics.Summarise(imbalance).Mean,
		"shard.serial_us.p50":           median(serial),
	}
}

func serveLayers(t *tracedPass) map[string]float64 {
	handlerUS := map[int]float64{} // post span → its handler time
	for i, s := range t.spans {
		if s.Name == "serve.post" {
			handlerUS[i] += 0
		}
	}
	for _, s := range t.spans {
		if s.Name == "serve.handler" {
			if _, ok := handlerUS[s.Parent]; ok {
				handlerUS[s.Parent] += float64(s.dur()) / 1e3
			}
		}
	}
	var handler, wire []float64
	for i, h := range handlerUS {
		handler = append(handler, h)
		wire = append(wire, float64(t.spans[i].dur())/1e3-h)
	}
	read := durationsUS(t.spans, "serve.read")
	return map[string]float64{
		"serve.handler_us.p50":          percentile(handler, 0.50),
		"serve.handler_us.p99":          percentile(handler, 0.99),
		"serve.handler_share":           sum(handler) / total(t.spans, "serve.post"),
		"serve.wire_us.p50":             median(wire),
		"serve.read_us.p50":             percentile(read, 0.50),
		"serve.read_us.p99":             percentile(read, 0.99),
		"serve.scrape_ms":               median(durationsUS(t.spans, "serve.scrape")) / 1e3,
		"telemetry.events_per_decision": float64(t.events) / float64(t.decisions),
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}
