package predrm

import (
	"predrm/internal/core"
	"predrm/internal/engine"
	"predrm/internal/exact"
	"predrm/internal/experiments"
	"predrm/internal/gantt"
	"predrm/internal/milpform"
	"predrm/internal/platform"
	"predrm/internal/predict"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/sim"
	"predrm/internal/static"
	"predrm/internal/task"
	"predrm/internal/telemetry"
	"predrm/internal/trace"
)

// Platform modelling.
type (
	// Platform is a fixed set of heterogeneous resources.
	Platform = platform.Platform
	// Resource is one computation resource.
	Resource = platform.Resource
)

// NewPlatform builds a platform with the given CPU and GPU counts.
func NewPlatform(cpus, gpus int) *Platform { return platform.New(cpus, gpus) }

// DefaultPlatform returns the paper's 5-CPU + 1-GPU evaluation platform.
func DefaultPlatform() *Platform { return platform.Default() }

// Task and trace modelling.
type (
	// TaskType describes one task's per-resource WCET/energy and migration
	// overheads.
	TaskType = task.Type
	// TaskSet is a collection of task types over a platform.
	TaskSet = task.Set
	// TaskGenConfig parameterises the synthetic task-set generator.
	TaskGenConfig = task.GenConfig
	// Request is one trace entry.
	Request = trace.Request
	// Trace is a stream of requests.
	Trace = trace.Trace
	// TraceGenConfig parameterises the trace generator.
	TraceGenConfig = trace.GenConfig
	// Tightness selects the deadline group (VeryTight or LessTight).
	Tightness = trace.Tightness
)

// Deadline tightness groups (Sec 5.1).
const (
	VeryTight = trace.VeryTight
	LessTight = trace.LessTight
)

// NotExecutable marks a (task, resource) pair on which the task cannot
// run, in TaskType.WCET and TaskType.Energy.
const NotExecutable = task.NotExecutable

// DefaultTaskGenConfig returns the paper's Sec 5.1 task parameters.
func DefaultTaskGenConfig() TaskGenConfig { return task.DefaultGenConfig() }

// GenerateTaskSet builds a synthetic task set, deterministic in seed.
func GenerateTaskSet(p *Platform, cfg TaskGenConfig, seed uint64) (*TaskSet, error) {
	return task.Generate(p, cfg, rng.New(seed))
}

// MotivationalTaskSet returns the Sec 3 / Table 1 task set (with its 2-CPU
// + 1-GPU platform in TaskSet.Platform).
func MotivationalTaskSet() *TaskSet { return task.Motivational() }

// DefaultTraceGenConfig returns the paper's Sec 5.1 trace parameters for a
// tightness group.
func DefaultTraceGenConfig(t Tightness) TraceGenConfig { return trace.DefaultGenConfig(t) }

// GenerateTrace builds one request trace, deterministic in seed.
func GenerateTrace(s *TaskSet, cfg TraceGenConfig, seed uint64) (*Trace, error) {
	return trace.Generate(s, cfg, rng.New(seed))
}

// ReadTraceFile loads a JSON trace.
func ReadTraceFile(path string) (*Trace, error) { return trace.ReadFile(path) }

// Scheduling and solving.
type (
	// Job is a runtime task instance under management.
	Job = sched.Job
	// Problem is one resource-management decision instance.
	Problem = sched.Problem
	// MigrationPolicy selects when relocations are charged.
	MigrationPolicy = sched.MigrationPolicy
	// Decision is a solver's mapping answer.
	Decision = core.Decision
	// Solver maps all jobs of a problem at once.
	Solver = core.Solver
	// Heuristic is the paper's Algorithm 1.
	Heuristic = core.Heuristic
	// Optimal is the exact reference solver (the MILP optimum via branch
	// and bound).
	Optimal = exact.Optimal
	// MILPSolver solves activations through the paper's literal MILP
	// formulation on the built-in simplex / branch-and-bound stack.
	MILPSolver = milpform.Solver
)

// Migration charging policies.
const (
	ChargeStartedOnly = sched.ChargeStartedOnly
	ChargeAlways      = sched.ChargeAlways
)

// NewJob builds a fresh unmapped job.
func NewJob(id int, ty *TaskType, arrival, relDeadline float64) *Job {
	return sched.NewJob(id, ty, arrival, relDeadline)
}

// NewHeuristic returns the paper's Algorithm 1 solver. The solver reuses
// an internal scratch arena across Solve calls and is not safe for
// concurrent use; give each goroutine its own instance.
func NewHeuristic() *Heuristic { return &core.Heuristic{} }

// NewOptimal returns the exact reference solver. Like the heuristic it
// keeps per-solve scratch state and is not safe for concurrent use.
func NewOptimal() *Optimal { return &exact.Optimal{} }

// Admit runs the Sec 4.1 admission protocol (solve with the predicted job,
// fall back without it) on any solver.
func Admit(s Solver, p *Problem) (Decision, bool) { return core.Admit(s, p) }

// Prediction.
type (
	// Predictor forecasts the next request.
	Predictor = predict.Predictor
	// Prediction is one forecast.
	Prediction = predict.Prediction
	// Oracle is the accuracy-dialed evaluation predictor.
	Oracle = predict.Oracle
	// OracleConfig parameterises NewOracle.
	OracleConfig = predict.OracleConfig
	// Markov is the online type/interarrival predictor.
	Markov = predict.Markov
	// InterarrivalEstimator learns the arrival gap process.
	InterarrivalEstimator = predict.InterarrivalEstimator
)

// NewOracle builds the evaluation predictor over a trace.
func NewOracle(tr *Trace, cfg OracleConfig) (*Oracle, error) { return predict.NewOracle(tr, cfg) }

// NewMarkov builds the online predictor (nil estimator = EWMA 0.2).
func NewMarkov(numTypes int, est InterarrivalEstimator, overhead float64) (*Markov, error) {
	return predict.NewMarkov(numTypes, est, overhead)
}

// NewEWMA returns an exponentially-weighted interarrival estimator.
func NewEWMA(alpha float64) InterarrivalEstimator { return predict.NewEWMA(alpha) }

// NewTwoPhase returns the two-phase interarrival estimator.
func NewTwoPhase(alpha float64) InterarrivalEstimator { return predict.NewTwoPhase(alpha) }

// Simulation.
type (
	// SimConfig assembles one simulation.
	SimConfig = engine.Config
	// SimResult aggregates one trace's outcomes.
	SimResult = engine.Result
	// JobRecord is the per-request outcome.
	JobRecord = engine.JobRecord
)

// Simulate drives a trace through the platform and resource manager.
func Simulate(cfg SimConfig, tr *Trace) (*SimResult, error) { return sim.Run(cfg, tr) }

// Telemetry (see the README's Observability section). Attach a Tracer
// and/or a Registry to SimConfig to record the structured event stream and
// the decision metrics of a simulation; both are optional and cost nothing
// when absent.
type (
	// Tracer records structured simulation events (SimConfig.Tracer).
	Tracer = telemetry.Tracer
	// TracerOptions parameterises NewTracer (ring size, JSONL sink).
	TracerOptions = telemetry.TracerOptions
	// TraceEvent is one structured simulation event.
	TraceEvent = telemetry.Event
	// MetricsRegistry collects counters, gauges, and latency histograms
	// (SimConfig.Metrics).
	MetricsRegistry = telemetry.Registry
	// MetricsSnapshot is an immutable registry snapshot (SimResult.Telemetry).
	MetricsSnapshot = telemetry.Snapshot
)

// NewTracer builds a structured event tracer.
func NewTracer(opts TracerOptions) *Tracer { return telemetry.NewTracer(opts) }

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// MergeSnapshots combines metric snapshots across runs: counters and
// histogram buckets sum, gauges keep the last value and the overall max.
func MergeSnapshots(snaps ...*MetricsSnapshot) *MetricsSnapshot { return telemetry.Merge(snaps...) }

// StaticTable is the quasi-static baseline's design-time artefact.
type StaticTable = static.Table

// BuildStaticTable derives per-type resource preferences from a task set
// at "design time" (by ascending energy).
func BuildStaticTable(s *TaskSet) StaticTable { return static.BuildTable(s) }

// NewStaticRM returns the quasi-static baseline resource manager: it
// applies design-time placements and never remaps admitted tasks
// (the related-work family the paper contrasts itself against).
func NewStaticRM(table StaticTable) Solver { return static.New(table) }

// Schedule visualisation.
type (
	// ExecSegment is one executed schedule piece (SimConfig.RecordExecution).
	ExecSegment = engine.ExecSegment
	// GanttChart renders executed schedules as text.
	GanttChart = gantt.Chart
)

// NewGantt builds a chart over recorded execution segments.
func NewGantt(p *Platform, segs []ExecSegment) (*GanttChart, error) {
	return gantt.New(p, segs)
}

// Experiments (the paper's evaluation).
type (
	// ExperimentConfig drives the evaluation harness.
	ExperimentConfig = experiments.Config
	// ExperimentProfile selects workload parameters.
	ExperimentProfile = experiments.Profile
	// ResultTable is a printable experiment result.
	ResultTable = experiments.Table
)

// DefaultExperimentConfig returns a laptop-scale evaluation configuration.
func DefaultExperimentConfig() ExperimentConfig { return experiments.DefaultConfig() }

// PaperProfile returns the paper's literal Sec 5.1 workload parameters.
func PaperProfile() ExperimentProfile { return experiments.PaperProfile() }

// CalibratedProfile returns the load-calibrated workload parameters
// (see DESIGN.md and EXPERIMENTS.md).
func CalibratedProfile() ExperimentProfile { return experiments.CalibratedProfile() }
