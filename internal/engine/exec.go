package engine

import (
	"fmt"
	"math"

	"predrm/internal/core"
	"predrm/internal/sched"
	"predrm/internal/telemetry"
)

// probe reports the current RM state through Config.StateProbe. The
// sample's Resources reuse one engine-owned buffer, which the StateProbe
// contract forbids keeping past the call.
func (r *Engine) probe(req int) {
	if r.cfg.StateProbe == nil {
		return
	}
	r.probeRes = zeroedSamples(r.probeRes, r.cfg.Platform.Len())
	s := StateSample{Time: r.now, Req: req, Resources: r.probeRes}
	r.addState(&s, nil)
	r.cfg.StateProbe(s)
}

// addState adds the engine's counters, mapped jobs and reservations into
// s. ids, when non-nil, maps the engine's resource ids to indices of
// s.Resources (a shard's local ids to the platform's global ones).
func (r *Engine) addState(s *StateSample, ids []int) {
	s.Requests += r.res.Accepted + r.res.Rejected
	s.Accepted += r.res.Accepted
	s.Rejected += r.res.Rejected
	s.Finished += r.finished
	s.DeadlineMisses += r.res.DeadlineMisses
	s.InFlight += len(r.active)
	global := func(res int) int {
		if ids == nil {
			return res
		}
		return ids[res]
	}
	for _, j := range r.active {
		if j.Resource == sched.Unmapped {
			continue
		}
		rs := &s.Resources[global(j.Resource)]
		rs.Jobs++
		if rs.NextDeadline == 0 || j.AbsDeadline < rs.NextDeadline {
			rs.NextDeadline = j.AbsDeadline
		}
	}
	for _, g := range r.pendingResv {
		s.Resources[global(g.res)].Reserved++
	}
}

// zeroedSamples returns buf resized to n zeroed samples, reusing its
// storage when it is large enough.
func zeroedSamples(buf []ResourceSample, n int) []ResourceSample {
	if cap(buf) < n {
		return make([]ResourceSample, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// emitLifecycle reports a job execution transition on resource res.
func (r *Engine) emitLifecycle(typ telemetry.EventType, j *sched.Job, res int, reason string) {
	e := telemetry.NewEvent(r.now, typ)
	e.Req = j.ID
	e.Task = j.Type.ID
	e.Res = res
	e.Reason = reason
	e.Value = j.Frac
	r.trc.Emit(e)
}

// reasonCounter bumps the per-reason outcome counter (e.g.
// sim.reject_reason.no_feasible_mapping). The registry's get-or-create
// lookup makes the counter set self-defining: a reason appears the first
// time it is charged.
func (r *Engine) reasonCounter(prefix, reason string) {
	if r.cfg.Metrics == nil {
		return
	}
	r.cfg.Metrics.Counter(prefix + reason).Inc()
}

// emitDecision publishes the activation's decision-provenance record as an
// EvDecision event carrying a deep-copied snapshot of the arena (the
// tracer ring outlives the next Reset).
func (r *Engine) emitDecision(req, taskType, res int, reason string, energy float64) {
	if r.prov == nil || r.trc == nil {
		return
	}
	e := telemetry.NewEvent(r.now, telemetry.EvDecision)
	e.Req = req
	e.Task = taskType
	e.Res = res
	e.Reason = reason
	e.Value = energy
	e.Prov = r.prov.Snapshot()
	r.trc.Emit(e)
}

// noteExec registers that j is about to execute on res, emitting job_start
// when the resource's occupancy changes. Called only when tracing.
func (r *Engine) noteExec(j *sched.Job, res int) {
	if r.running[res] == j {
		return
	}
	reason := telemetry.ReasonStart
	if j.Started {
		reason = telemetry.ReasonResume
	}
	r.emitLifecycle(telemetry.EvJobStart, j, res, reason)
	r.running[res] = j
}

// notePauses closes the occupancy slot of every resource whose current
// occupant does not continue executing there in the step about to run,
// emitting job_preempt with the transition cause. Finished occupants are
// reported by reap instead. Called only when tracing.
func (r *Engine) notePauses(acts []execAction) {
	for res, occ := range r.running {
		if occ == nil {
			continue
		}
		continues, migrates := false, false
		var displacer *sched.Job
		for _, a := range acts {
			switch {
			case a.res == res && a.job == occ:
				continues = true
			case a.res == res:
				displacer = a.job
			case a.job == occ:
				migrates = true
			}
		}
		if continues {
			continue
		}
		if occ.Done() {
			r.running[res] = nil // reap emits job_finish
			continue
		}
		reason := telemetry.ReasonPaused
		if displacer != nil {
			reason = telemetry.ReasonDisplaced
		}
		if migrates {
			reason = telemetry.ReasonMigrated
		}
		r.emitLifecycle(telemetry.EvJobPreempt, occ, res, reason)
		r.running[res] = nil
	}
}

// execAction is one (resource, job) dispatch of an execution step.
type execAction struct {
	res int
	job *sched.Job
}

// flushReservations reports the fate of the standing reservations once the
// next activation replaces them: a reservation whose window had begun was
// held idle by the planned schedule (honoured).
func (r *Engine) flushReservations() {
	for _, g := range r.pendingResv {
		if r.now+sched.Eps >= g.job.Arrival {
			r.ins.resvHonoured.Inc()
			e := telemetry.NewEvent(r.now, telemetry.EvReservationHonoured)
			e.Res = g.res
			e.Value = g.job.Arrival
			r.trc.Emit(e)
		}
	}
	r.pendingResv = nil
}

// NextWake returns the next engine time at which state changes on its own
// — a running job completes, or a plan-segment or reservation boundary
// passes — and false when nothing is pending. A wall-clock driver sleeps
// until the wake time and calls AdvanceTo; waking early is harmless
// (AdvanceTo is monotone), and the reported time is exact, so completions
// are stamped at their true engine times regardless of when the driver
// observes them.
func (r *Engine) NextWake() (float64, bool) {
	best := math.Inf(1)
	for res := range r.plan {
		job, run, until := r.planStep(res)
		if job != nil {
			until = r.now + run
		}
		if until < best {
			best = until
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	return best, true
}

// planStep is what resource res does now under the standing plan, the one
// walk NextWake and advance share. Its first live segment (not past, its
// job not completed) either runs job for up to run time units, bounded by
// the job's remaining work and the segment's end, or, with job nil, holds
// the resource idle until the absolute time until: the segment's start,
// or the end of a reservation for the predicted task. A resource with no
// live segment reports job nil and until +Inf.
func (r *Engine) planStep(res int) (job *sched.Job, run, until float64) {
	for _, s := range r.plan[res] {
		if s.end <= r.now+sched.Eps || (s.job != nil && s.job.Done()) {
			continue // past, or completed slightly early by rounding
		}
		switch {
		case s.start > r.now+sched.Eps:
			return nil, 0, s.start
		case s.job == nil:
			return nil, 0, s.end
		}
		run = s.end - r.now
		if need := s.job.MigDebt + s.job.Frac*s.job.Type.WCET[res]; need < run {
			run = need
		}
		return s.job, run, 0
	}
	return nil, 0, math.Inf(1)
}

// auditState verifies the standing schedule is still feasible (Config.Audit).
func (r *Engine) auditState(beforeRequest int) error {
	if len(r.active) == 0 {
		return nil
	}
	p := &sched.Problem{Platform: r.cfg.Platform, Time: r.now, Jobs: r.active, Policy: r.cfg.Policy}
	mapping := make([]int, len(r.active))
	for i, j := range r.active {
		mapping[i] = j.Resource
	}
	if !p.FeasibleMapping(mapping) {
		return fmt.Errorf("engine: audit before request %d at t=%.6f: standing schedule infeasible; jobs=%v",
			beforeRequest, r.now, r.active)
	}
	return nil
}

// apply installs an admission decision: remaps active jobs (charging
// migrations) and activates the new job.
func (r *Engine) apply(p *sched.Problem, d core.Decision, newJob *sched.Job) {
	for i, j := range p.Jobs {
		if j.Predicted {
			continue // planning constraint only (Sec 4.1)
		}
		target := d.Mapping[i]
		if target == sched.Unmapped {
			// Cannot happen for an admitted decision; guard loudly.
			panic(fmt.Sprintf("engine: admitted decision leaves %v unmapped", j))
		}
		if j.Resource != sched.Unmapped && j.Resource != target {
			charged := j.Started || p.Policy == sched.ChargeAlways
			r.prov.Remap(j.ID, j.Resource, target, charged)
			if charged {
				j.MigDebt += j.Type.MigTime
				rec := &r.rec[j.ID]
				rec.Migrations++
				rec.Energy += j.Type.MigEnergy
				r.res.Migrations++
				r.res.MigrationEnergy += j.Type.MigEnergy
				r.res.TotalEnergy += j.Type.MigEnergy
				r.ins.migrations.Inc()
				if r.trc != nil {
					e := telemetry.NewEvent(r.now, telemetry.EvMigration)
					e.Req = j.ID
					e.Res = target
					e.Value = j.Type.MigEnergy
					r.trc.Emit(e)
				}
			}
		}
		j.Resource = target
	}
	r.active = append(r.active, newJob)
}

// ghostRef is one mapped predicted job carried into the standing plan.
type ghostRef struct {
	job *sched.Job
	res int
}

// replan rebuilds the standing schedule from the active jobs' current
// mappings, optionally reserving capacity for the mapped predicted jobs.
// It reuses the engine's job, mapping, problem and schedule buffers and
// truncates each resource's plan in place. A failure to reconstruct a
// feasible schedule means the RM's invariant broke; it is surfaced as an
// error.
func (r *Engine) replan(ghosts []ghostRef) error {
	defer telemetry.StartTimer(r.ins.replanSec).Stop()
	// The previous activation's reservations end here; report their fate.
	r.flushReservations()
	r.pendingResv = ghosts
	jobs := append(r.jobs[:0], r.active...)
	mapping := r.mapping[:0]
	for _, j := range jobs {
		mapping = append(mapping, j.Resource)
	}
	for _, g := range ghosts {
		jobs = append(jobs, g.job)
		mapping = append(mapping, g.res)
	}
	r.jobs, r.mapping = jobs, mapping
	r.problem = sched.Problem{Platform: r.cfg.Platform, Time: r.now, Jobs: jobs, Policy: r.cfg.Policy}
	segsByRes, ok := r.problem.Schedule(mapping, &r.schedBuf)
	if !ok {
		return fmt.Errorf("engine: replan at t=%.6f produced an infeasible schedule (RM invariant broken); jobs=%v",
			r.now, jobs)
	}
	if len(r.plan) != len(segsByRes) {
		r.plan = make([][]planSeg, len(segsByRes))
	}
	for res, segs := range segsByRes {
		plan := r.plan[res][:0]
		for _, s := range segs {
			ps := planSeg{start: s.Start, end: s.End}
			if !jobs[s.Index].Predicted {
				ps.job = jobs[s.Index]
			}
			plan = append(plan, ps)
		}
		r.plan[res] = plan
	}
	return nil
}

// advance executes the standing schedule up to time target. Each step
// runs every resource's planned job until the first completion, segment
// boundary or target; every action serves its job, then the clock moves
// and finished jobs retire.
func (r *Engine) advance(target float64) {
	defer telemetry.StartTimer(r.ins.advanceSec).Stop()
	for r.now < target-sched.Eps {
		if len(r.active) == 0 {
			break // reap keeps only unfinished jobs
		}
		acts := r.acts[:0]
		step := math.Inf(1)
		if !math.IsInf(target, 1) {
			step = target - r.now
		}
		for res := range r.plan {
			job, run, until := r.planStep(res)
			if job == nil {
				if d := until - r.now; d < step {
					step = d
				}
				continue
			}
			if run < step {
				step = run
			}
			acts = append(acts, execAction{res, job})
		}
		r.acts = acts
		if len(acts) == 0 && math.IsInf(step, 1) {
			break // no runnable segment and no upcoming boundary
		}
		if step <= 0 {
			step = sched.Eps
		}
		if r.running != nil {
			r.notePauses(acts)
		}
		for _, a := range acts {
			r.execute(a.job, a.res, step)
		}
		r.now += step
		r.reap()
	}
	if !math.IsInf(target, 1) && target > r.now {
		r.now = target
	}
}

// execute serves dt time of job j on resource res: migration debt first,
// then useful work with energy accounting.
func (r *Engine) execute(j *sched.Job, res int, dt float64) {
	if r.running != nil {
		r.noteExec(j, res)
	}
	j.Started = true
	j.ExecRes = res
	if r.cfg.RecordExecution {
		r.record(res, j.ID, dt)
	}
	if j.MigDebt > 0 {
		served := math.Min(j.MigDebt, dt)
		j.MigDebt -= served
		dt -= served
		if j.MigDebt < sched.Eps {
			j.MigDebt = 0
		}
		if dt <= 0 {
			return
		}
	}
	wcet := j.Type.WCET[res]
	frac := dt / wcet
	if frac > j.Frac {
		frac = j.Frac
	}
	j.Frac -= frac
	energy := j.Type.Energy[res] * frac
	r.rec[j.ID].Energy += energy
	r.res.TotalEnergy += energy
	if j.Frac < sched.Eps {
		j.Frac = 0
	}
}

// record appends execution time to the per-resource trace, merging
// contiguous segments of the same job.
func (r *Engine) record(res, jobID int, dt float64) {
	if r.exec == nil {
		r.exec = make([][]ExecSegment, r.cfg.Platform.Len())
	}
	segs := r.exec[res]
	if n := len(segs); n > 0 {
		last := &segs[n-1]
		if last.JobID == jobID && last.End >= r.now-sched.Eps {
			last.End = r.now + dt
			return
		}
	}
	r.exec[res] = append(segs, ExecSegment{
		Resource: res, JobID: jobID, Start: r.now, End: r.now + dt,
	})
}

// noteFinish emits job_finish for a completed job and releases its
// occupancy slot. Called only when tracing.
func (r *Engine) noteFinish(j *sched.Job) {
	res := j.ExecRes
	for i, occ := range r.running {
		if occ == j {
			r.running[i] = nil
			res = i
		}
	}
	e := telemetry.NewEvent(r.now, telemetry.EvJobFinish)
	e.Req = j.ID
	e.Task = j.Type.ID
	e.Res = res
	e.Value = r.rec[j.ID].Energy
	r.trc.Emit(e)
}

// reap retires completed jobs, auditing the deadline invariant.
func (r *Engine) reap() {
	kept := r.active[:0]
	for _, j := range r.active {
		if !j.Done() {
			kept = append(kept, j)
			continue
		}
		if r.running != nil {
			r.noteFinish(j)
		}
		r.finished++
		rec := &r.rec[j.ID]
		rec.FinishTime = r.now
		if r.now > j.AbsDeadline+1e-6 {
			rec.MissedDeadline = true
			r.res.DeadlineMisses++
		}
		if r.now > r.res.MakeSpan {
			r.res.MakeSpan = r.now
		}
	}
	r.active = kept
}
