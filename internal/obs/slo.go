package obs

import (
	"fmt"
	"sync"

	"predrm/internal/telemetry"
)

// SLOConfig parameterises the error-budget tracker. The two objectives
// mirror the RM's contract: rejections are expected and budgeted (the
// paper's evaluation operates around a 25-30% rejection band), while
// deadline misses are an invariant violation, so their budget is tiny and
// any miss burns it visibly.
type SLOConfig struct {
	// RejectionTarget is the budgeted rejected fraction of requests
	// (default 0.30).
	RejectionTarget float64
	// MissTarget is the budgeted deadline-miss fraction of completed jobs
	// (default 0.001).
	MissTarget float64
	// Windows are the sliding-window lengths, in simulated time units,
	// over which burn rates are computed (default 50 and 500 — a fast
	// window that reacts to load spikes and a slow one that matches
	// sustained drift; the multi-window pairing follows SRE burn-rate
	// alerting practice).
	Windows []float64
}

// withDefaults fills zero fields.
func (c SLOConfig) withDefaults() SLOConfig {
	if c.RejectionTarget <= 0 {
		c.RejectionTarget = 0.30
	}
	if c.MissTarget <= 0 {
		c.MissTarget = 0.001
	}
	if len(c.Windows) == 0 {
		c.Windows = []float64{50, 500}
	}
	return c
}

// SLO computes rolling error-budget burn rates from the cumulative
// admission counters carried by engine.StateSample probes. A burn rate is
// the observed bad-event rate over a window divided by the budgeted rate:
// 1.0 means the budget is being consumed exactly as provisioned, >1 means
// the budget will be exhausted early. Safe for concurrent use (the
// simulator records while HTTP handlers report).
type SLO struct {
	mu      sync.Mutex
	cfg     SLOConfig
	maxW    float64
	samples []sloSample // time-ordered cumulative samples
	// Gauges per window, published on every Record so /metrics always
	// carries the current burn rates. Nil (no-op) without a registry.
	gRejRate, gRejBurn   []*telemetry.Gauge
	gMissRate, gMissBurn []*telemetry.Gauge
}

// sloSample is one cumulative observation.
type sloSample struct {
	t                  float64
	requests, rejected int
	finished, missed   int
}

// NewSLO builds a tracker, registering slo.* gauges on reg (nil-safe):
// per window W, slo.rejection.rate_wW, slo.rejection.burn_wW,
// slo.deadline_miss.rate_wW and slo.deadline_miss.burn_wW.
func NewSLO(cfg SLOConfig, reg *telemetry.Registry) *SLO {
	cfg = cfg.withDefaults()
	s := &SLO{cfg: cfg}
	for _, w := range cfg.Windows {
		if w > s.maxW {
			s.maxW = w
		}
		suffix := fmt.Sprintf("_w%g", w)
		s.gRejRate = append(s.gRejRate, reg.Gauge("slo.rejection.rate"+suffix))
		s.gRejBurn = append(s.gRejBurn, reg.Gauge("slo.rejection.burn"+suffix))
		s.gMissRate = append(s.gMissRate, reg.Gauge("slo.deadline_miss.rate"+suffix))
		s.gMissBurn = append(s.gMissBurn, reg.Gauge("slo.deadline_miss.burn"+suffix))
	}
	return s
}

// Record folds one cumulative observation into the windows and refreshes
// the slo.* gauges. Observations must arrive in non-decreasing time order
// within a run (the simulator's event loop guarantees this); a time
// regression marks a new run starting (experiments restart virtual time
// at zero per simulated trace) and resets the window history so stale
// samples from the previous run cannot pollute the deltas.
func (s *SLO) Record(t float64, requests, rejected, finished, missed int) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if n := len(s.samples); n > 0 && t < s.samples[n-1].t {
		s.samples = s.samples[:0]
	}
	s.samples = append(s.samples, sloSample{t, requests, rejected, finished, missed})
	// Prune history older than the longest window, keeping one sample at
	// or before the boundary so window deltas stay anchored.
	cut := 0
	for cut+1 < len(s.samples) && s.samples[cut+1].t <= t-s.maxW {
		cut++
	}
	if cut > 0 {
		s.samples = append(s.samples[:0], s.samples[cut:]...)
	}
	rep := s.reportLocked()
	s.mu.Unlock()
	for i, w := range rep.Windows {
		s.gRejRate[i].Set(w.RejectionRate)
		s.gRejBurn[i].Set(w.RejectionBurn)
		s.gMissRate[i].Set(w.MissRate)
		s.gMissBurn[i].Set(w.MissBurn)
	}
}

// SLOWindow is one window's burn-rate reading.
type SLOWindow struct {
	// Window is the sliding-window length in simulated time units.
	Window float64 `json:"window"`
	// RejectionRate is the rejected fraction of requests decided inside
	// the window; RejectionBurn is that rate over the budgeted rate.
	RejectionRate float64 `json:"rejection_rate"`
	RejectionBurn float64 `json:"rejection_burn"`
	// MissRate is the deadline-miss fraction of jobs completed inside the
	// window; MissBurn is that rate over the budgeted rate.
	MissRate float64 `json:"miss_rate"`
	MissBurn float64 `json:"miss_burn"`
}

// SLOReport is a point-in-time view of the tracker.
type SLOReport struct {
	// RejectionTarget and MissTarget echo the configured budgets.
	RejectionTarget float64 `json:"rejection_target"`
	MissTarget      float64 `json:"miss_target"`
	// Windows holds one reading per configured window, in config order.
	Windows []SLOWindow `json:"windows"`
	// TotalRejectionRate and TotalMissRate are lifetime rates (whole run,
	// not windowed) — these are what the end-of-run summary prints.
	TotalRejectionRate float64 `json:"total_rejection_rate"`
	TotalMissRate      float64 `json:"total_miss_rate"`
}

// Report returns the current burn rates. Nil-safe (zero report).
func (s *SLO) Report() SLOReport {
	if s == nil {
		return SLOReport{}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reportLocked()
}

func (s *SLO) reportLocked() SLOReport {
	rep := SLOReport{
		RejectionTarget: s.cfg.RejectionTarget,
		MissTarget:      s.cfg.MissTarget,
		Windows:         make([]SLOWindow, len(s.cfg.Windows)),
	}
	if len(s.samples) == 0 {
		for i, w := range s.cfg.Windows {
			rep.Windows[i].Window = w
		}
		return rep
	}
	cur := s.samples[len(s.samples)-1]
	rep.TotalRejectionRate = ratio(cur.rejected, cur.requests)
	rep.TotalMissRate = ratio(cur.missed, cur.finished)
	for i, w := range s.cfg.Windows {
		base := s.baseline(cur.t - w)
		win := SLOWindow{
			Window:        w,
			RejectionRate: ratio(cur.rejected-base.rejected, cur.requests-base.requests),
			MissRate:      ratio(cur.missed-base.missed, cur.finished-base.finished),
		}
		win.RejectionBurn = win.RejectionRate / s.cfg.RejectionTarget
		win.MissBurn = win.MissRate / s.cfg.MissTarget
		rep.Windows[i] = win
	}
	return rep
}

// baseline returns the newest sample at or before time t, or a zero
// sample when the whole history is newer (run shorter than the window).
func (s *SLO) baseline(t float64) sloSample {
	var base sloSample
	for _, smp := range s.samples {
		if smp.t > t {
			break
		}
		base = smp
	}
	return base
}

// ratio returns num/den, or 0 when the denominator is empty.
func ratio(num, den int) float64 {
	if den <= 0 {
		return 0
	}
	return float64(num) / float64(den)
}
