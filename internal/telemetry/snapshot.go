package telemetry

import (
	"math"
)

// Snapshot is a point-in-time copy of a registry's instruments, suitable
// for JSON export, merging across runs, and summarisation by
// internal/metrics.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// GaugeSnapshot is a gauge's exported state.
type GaugeSnapshot struct {
	Value float64 `json:"value"`
	Max   float64 `json:"max"`
}

// HistogramSnapshot is a histogram's exported state. Counts has one entry
// per bucket in Bounds plus a final overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Count  int64     `json:"count"`
	Sum    float64   `json:"sum"`
	SumSq  float64   `json:"sum_sq"`
	Min    float64   `json:"min"`
	Max    float64   `json:"max"`
}

// Snapshot copies the registry's current state. Nil-safe: a nil registry
// yields nil.
func (r *Registry) Snapshot() *Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &Snapshot{
		Counters:   make(map[string]int64, len(r.counters)),
		Gauges:     make(map[string]GaugeSnapshot, len(r.gauges)),
		Histograms: make(map[string]HistogramSnapshot, len(r.hists)),
	}
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Bounds: append([]float64(nil), h.bounds...),
			Counts: make([]int64, len(h.counts)),
			Count:  h.count.Load(),
			Sum:    math.Float64frombits(h.sum.Load()),
			SumSq:  math.Float64frombits(h.sumSq.Load()),
		}
		for i := range h.counts {
			hs.Counts[i] = h.counts[i].Load()
		}
		if hs.Count > 0 {
			hs.Min = math.Float64frombits(h.min.Load())
			hs.Max = math.Float64frombits(h.max.Load())
		}
		s.Histograms[name] = hs
	}
	return s
}

// Mean returns the average observation, or 0 when empty.
func (h HistogramSnapshot) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

// Std returns the sample standard deviation (n−1) reconstructed from the
// tracked moments, or 0 for fewer than two observations.
func (h HistogramSnapshot) Std() float64 {
	if h.Count < 2 {
		return 0
	}
	n := float64(h.Count)
	ss := h.SumSq - h.Sum*h.Sum/n
	if ss < 0 {
		ss = 0 // floating-point cancellation
	}
	return math.Sqrt(ss / (n - 1))
}

// Quantile estimates the q-th quantile (q in [0,1]) by linear
// interpolation inside the containing bucket, clamped to the observed
// [Min, Max]. It returns 0 when the histogram is empty.
func (h HistogramSnapshot) Quantile(q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	if q <= 0 {
		return h.Min
	}
	if q >= 1 {
		return h.Max
	}
	rank := q * float64(h.Count)
	var cum int64
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if float64(cum+c) < rank {
			cum += c
			continue
		}
		lo := h.Min
		if i > 0 {
			lo = math.Max(h.Min, h.Bounds[i-1])
		}
		hi := h.Max
		if i < len(h.Bounds) {
			hi = math.Min(h.Max, h.Bounds[i])
		}
		if hi < lo {
			hi = lo
		}
		frac := (rank - float64(cum)) / float64(c)
		return lo + frac*(hi-lo)
	}
	return h.Max
}

// Merge combines snapshots into a new one: counters and histogram buckets
// sum (histograms with mismatched bounds keep the first occurrence and are
// not merged further), gauge values take the last snapshot's reading while
// maxima take the overall high-water mark. Nil snapshots are skipped; the
// result is non-nil.
func Merge(snaps ...*Snapshot) *Snapshot {
	out := &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]GaugeSnapshot),
		Histograms: make(map[string]HistogramSnapshot),
	}
	for _, s := range snaps {
		if s == nil {
			continue
		}
		for name, v := range s.Counters {
			out.Counters[name] += v
		}
		for name, g := range s.Gauges {
			prev, ok := out.Gauges[name]
			if !ok {
				out.Gauges[name] = g
				continue
			}
			prev.Value = g.Value
			if g.Max > prev.Max {
				prev.Max = g.Max
			}
			out.Gauges[name] = prev
		}
		for name, h := range s.Histograms {
			prev, ok := out.Histograms[name]
			if !ok {
				out.Histograms[name] = cloneHist(h)
				continue
			}
			if !equalBounds(prev.Bounds, h.Bounds) {
				continue
			}
			for i := range prev.Counts {
				prev.Counts[i] += h.Counts[i]
			}
			prev.Sum += h.Sum
			prev.SumSq += h.SumSq
			if h.Count > 0 {
				if prev.Count == 0 || h.Min < prev.Min {
					prev.Min = h.Min
				}
				if prev.Count == 0 || h.Max > prev.Max {
					prev.Max = h.Max
				}
			}
			prev.Count += h.Count
			out.Histograms[name] = prev
		}
	}
	return out
}

func cloneHist(h HistogramSnapshot) HistogramSnapshot {
	h.Bounds = append([]float64(nil), h.Bounds...)
	h.Counts = append([]int64(nil), h.Counts...)
	return h
}

func equalBounds(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
