package traceview

import (
	"math"
	"sort"

	"predrm/internal/engine"
	"predrm/internal/telemetry"
)

// IntervalKind classifies a reconstructed schedule interval.
type IntervalKind int

const (
	// IntervalExec is time a job actually executed on the resource.
	IntervalExec IntervalKind = iota
	// IntervalReserved is time the resource was held idle for a predicted
	// job (a reservation honoured under plan-based execution).
	IntervalReserved
)

// Interval is one contiguous piece of reconstructed schedule: on Resource,
// during [Start, End), Job was executing (IntervalExec) or the resource
// idled inside a reservation window (IntervalReserved, Job is -1).
type Interval struct {
	Resource int
	Kind     IntervalKind
	// Job is the request id, or -1 for reservations.
	Job int
	// Task is the job's task type, or -1.
	Task       int
	Start, End float64
}

// RequestOutcome folds every event about one trace request into its
// reconstructed fate.
type RequestOutcome struct {
	// Req is the request id; Task its task type (-1 until an arrival or
	// lifecycle event names it).
	Req, Task int
	// HasArrival reports whether the arrival event survived (ring drops
	// can lose it); Arrival and Deadline are absolute times from it.
	HasArrival        bool
	Arrival, Deadline float64
	// Admitted/Rejected reflect the admission protocol's decision events.
	Admitted    bool
	AdmitTime   float64
	AdmitRes    int
	AdmitReason string
	Rejected    bool
	// RejectReason is the enumerated rejection cause from the reject event.
	RejectReason string
	// Decision points at the request's decision-provenance record
	// (EvDecision), when the trace was recorded with provenance on.
	Decision *telemetry.Event
	// Executed reports whether any job_start names this request.
	Executed bool
	// Finished reports a job_finish; FinishTime its time and Energy the
	// job's total consumption (including migrations) from the event.
	Finished   bool
	FinishTime float64
	Energy     float64
	// Migrations and MigrationEnergy accumulate the request's charged
	// relocations.
	Migrations      int
	MigrationEnergy float64
}

// Slack returns the finished request's deadline slack (positive = early).
func (o *RequestOutcome) Slack() float64 { return o.Deadline - o.FinishTime }

// Point is one step of a reconstructed time series.
type Point struct {
	T float64
	V float64
}

// Timeline is the reconstruction of one event trace: per-resource
// intervals, per-request outcomes, and the derived series the report,
// exporters, auditor, and diff all consume.
type Timeline struct {
	// Resources is one more than the largest resource id in the trace;
	// the platform itself is not serialised into traces.
	Resources int
	// Used lists, ascending, the ids of the resources that carry at
	// least one event. Per-resource output (utilization lines, Chrome
	// tracks) covers these only, so a single event naming a huge id
	// costs one row, not one per id below it.
	Used []int
	// Start and End bound the trace's simulated time.
	Start, End float64
	// Intervals holds execution and reservation intervals, sorted by
	// resource then start time.
	Intervals []Interval
	// Requests maps request id to its outcome (use SortedRequests for
	// deterministic iteration).
	Requests map[int]*RequestOutcome
	// InFlight is the admitted-but-unfinished job count over time.
	InFlight []Point
	// SolverWallSec holds each activation's measured solver latency in
	// seconds (from solver_returned WallNs; zero entries are kept so
	// counts match activations).
	SolverWallSec []float64
	// SolverJobs holds each activation's problem size (solver_invoked).
	SolverJobs []float64
	// Energy attribution across the run: execution of admitted requests
	// and charged migrations.
	ExecEnergy, MigrationEnergy float64
	// Reservation counters.
	ResvPlanned, ResvHonoured int
	// Dropped and Diags carry the reader's findings into downstream
	// consumers (the auditor softens missing-event checks when Dropped>0).
	Dropped int64
	Diags   []Diagnostic
}

// openExec tracks one in-progress execution interval during reconstruction.
type openExec struct {
	job, task int
	start     float64
}

// resvKey identifies a planned reservation: honoured events
// carry the same resource and predicted arrival as the planning event (the
// flush for batch N is emitted after batch N+1 is planned, so resource
// alone is ambiguous).
type resvKey struct {
	res     int
	arrival float64
}

// BuildTimeline folds a decoded event stream into a Timeline.
func BuildTimeline(d *Decoded) *Timeline {
	tl := &Timeline{
		Requests: make(map[int]*RequestOutcome),
		Start:    math.Inf(1),
		End:      math.Inf(-1),
		Dropped:  d.Dropped,
		Diags:    d.Diags,
	}
	open := make(map[int]openExec)    // resource -> running job
	used := make(map[int]bool)        // resources that carry an event
	resv := make(map[resvKey]float64) // pending reservation -> planned time
	inFlight := 0
	step := func(t float64, delta int) {
		inFlight += delta
		tl.InFlight = append(tl.InFlight, Point{T: t, V: float64(inFlight)})
	}
	for _, e := range d.Events {
		if e.T < tl.Start {
			tl.Start = e.T
		}
		if e.T > tl.End {
			tl.End = e.T
		}
		if e.Res >= tl.Resources {
			tl.Resources = e.Res + 1
		}
		if e.Res >= 0 && !used[e.Res] {
			used[e.Res] = true
			tl.Used = append(tl.Used, e.Res)
		}
		switch e.Type {
		case telemetry.EvArrival:
			o := tl.request(e.Req, e.Task)
			o.HasArrival = true
			o.Arrival = e.T
			o.Deadline = e.Value
		case telemetry.EvAdmit:
			o := tl.request(e.Req, e.Task)
			o.Admitted = true
			o.AdmitTime = e.T
			o.AdmitRes = e.Res
			o.AdmitReason = e.Reason
			step(e.T, +1)
		case telemetry.EvReject:
			o := tl.request(e.Req, e.Task)
			o.Rejected = true
			o.RejectReason = e.Reason
		case telemetry.EvDecision:
			e := e
			tl.request(e.Req, e.Task).Decision = &e
		case telemetry.EvMigration:
			o := tl.request(e.Req, -1)
			o.Migrations++
			o.MigrationEnergy += e.Value
			tl.MigrationEnergy += e.Value
		case telemetry.EvSolverInvoked:
			tl.SolverJobs = append(tl.SolverJobs, e.Value)
		case telemetry.EvSolverReturned:
			tl.SolverWallSec = append(tl.SolverWallSec, float64(e.WallNs)/1e9)
		case telemetry.EvReservationPlanned:
			tl.ResvPlanned++
			resv[resvKey{e.Res, e.Value}] = e.T
		case telemetry.EvReservationHonoured:
			tl.ResvHonoured++
			key := resvKey{e.Res, e.Value}
			start := e.Value
			if planned, ok := resv[key]; ok && planned > start {
				start = planned
			}
			delete(resv, key)
			if e.T > start {
				tl.Intervals = append(tl.Intervals, Interval{
					Resource: e.Res, Kind: IntervalReserved, Job: -1, Task: -1,
					Start: start, End: e.T,
				})
			}
		case telemetry.EvJobStart:
			if e.Req >= 0 {
				tl.request(e.Req, e.Task).Executed = true
			}
			if e.Res < 0 {
				break // names no resource, so it opens no interval
			}
			// Defensive: close anything the emitter forgot to close.
			for res, oe := range open {
				if res == e.Res || oe.job == e.Req {
					tl.closeExec(res, oe, e.T)
					delete(open, res)
				}
			}
			open[e.Res] = openExec{job: e.Req, task: e.Task, start: e.T}
		case telemetry.EvJobPreempt:
			if oe, ok := open[e.Res]; ok && oe.job == e.Req {
				tl.closeExec(e.Res, oe, e.T)
				delete(open, e.Res)
			}
		case telemetry.EvJobFinish:
			if oe, ok := open[e.Res]; ok && oe.job == e.Req {
				tl.closeExec(e.Res, oe, e.T)
				delete(open, e.Res)
			}
			if e.Req >= 0 {
				o := tl.request(e.Req, e.Task)
				o.Finished = true
				o.FinishTime = e.T
				o.Energy = e.Value
				tl.ExecEnergy += e.Value
				step(e.T, -1)
			}
		}
	}
	if math.IsInf(tl.Start, 1) {
		tl.Start, tl.End = 0, 0
	}
	// Execution energy excludes the separately attributed migration share.
	tl.ExecEnergy -= tl.MigrationEnergy
	for res, oe := range open {
		tl.closeExec(res, oe, tl.End)
	}
	sort.Ints(tl.Used)
	sort.SliceStable(tl.Intervals, func(a, b int) bool {
		if tl.Intervals[a].Resource != tl.Intervals[b].Resource {
			return tl.Intervals[a].Resource < tl.Intervals[b].Resource
		}
		return tl.Intervals[a].Start < tl.Intervals[b].Start
	})
	return tl
}

// request returns (creating if needed) the outcome record for req,
// remembering the task type when an event names it.
func (tl *Timeline) request(req, task int) *RequestOutcome {
	o, ok := tl.Requests[req]
	if !ok {
		o = &RequestOutcome{Req: req, Task: -1, AdmitRes: -1}
		tl.Requests[req] = o
	}
	if task >= 0 {
		o.Task = task
	}
	return o
}

// closeExec appends the finished execution interval (zero-length slices
// are kept: they witness that the job touched the resource).
func (tl *Timeline) closeExec(res int, oe openExec, end float64) {
	if end < oe.start {
		end = oe.start
	}
	tl.Intervals = append(tl.Intervals, Interval{
		Resource: res, Kind: IntervalExec, Job: oe.job, Task: oe.task,
		Start: oe.start, End: end,
	})
}

// SortedRequests returns the request outcomes ordered by id.
func (tl *Timeline) SortedRequests() []*RequestOutcome {
	out := make([]*RequestOutcome, 0, len(tl.Requests))
	for _, o := range tl.Requests {
		out = append(out, o)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Req < out[b].Req })
	return out
}

// Span returns the trace's duration.
func (tl *Timeline) Span() float64 { return tl.End - tl.Start }

// Utilization returns the executing fraction of the span of each
// resource in Used, in that order.
func (tl *Timeline) Utilization() []float64 {
	busy := make([]float64, len(tl.Used))
	for _, iv := range tl.Intervals {
		if iv.Kind == IntervalExec {
			// An execution interval opens on a job_start naming its
			// resource, so the resource is in Used.
			k := sort.SearchInts(tl.Used, iv.Resource)
			busy[k] += iv.End - iv.Start
		}
	}
	if span := tl.Span(); span > 0 {
		for i := range busy {
			busy[i] /= span
		}
	}
	return busy
}

// Slacks returns the deadline slack (deadline − finish, positive = early)
// of every finished request whose arrival survived in the trace.
func (tl *Timeline) Slacks() []float64 {
	var out []float64
	for _, o := range tl.SortedRequests() {
		if o.Finished && o.HasArrival {
			out = append(out, o.Slack())
		}
	}
	return out
}

// ExecSegments converts the execution intervals into the simulator's
// segment type for gantt rendering.
func (tl *Timeline) ExecSegments() []engine.ExecSegment {
	var segs []engine.ExecSegment
	for _, iv := range tl.Intervals {
		if iv.Kind != IntervalExec || iv.End <= iv.Start {
			continue
		}
		segs = append(segs, engine.ExecSegment{
			Resource: iv.Resource, JobID: iv.Job, Start: iv.Start, End: iv.End,
		})
	}
	return segs
}

// InFlightPeak returns the maximum admitted-but-unfinished job count.
func (tl *Timeline) InFlightPeak() int {
	peak := 0.0
	for _, p := range tl.InFlight {
		if p.V > peak {
			peak = p.V
		}
	}
	return int(peak)
}
