package sched

import "math"

// Cross-activation warm-start state.
//
// Consecutive RM activations differ by one arrival or one completion
// (PR 5's feasibility cache measured ~95% content overlap), so a solver
// that remembers its previous answer can delta-solve: retain the
// assignments of surviving jobs, place only the new ones, and verify the
// result instead of rebuilding it. WarmState is that memory — the jobs a
// solver last mapped, where it put them, and a per-job fingerprint of the
// work remaining — and MappingDelta is the difference between the
// remembered activation and the problem now being solved.
//
// Jobs are matched by pointer identity: the simulator keeps *Job values
// alive across activations (progress is mutated in place), so the same
// pointer appearing in two consecutive problems is the same runtime job by
// construction. Predicted jobs are rebuilt fresh per activation and
// therefore always land on the "added" side, which is the correct reading:
// a forecast is re-decided every time.

// WarmState records one solver's previous activation: which jobs it
// mapped, the resources it chose, and a drift fingerprint per job. The
// zero value is an empty (invalid) state. Like the solvers that embed it,
// a WarmState is single-caller: Record and Delta must not race.
type WarmState struct {
	jobs []*Job
	res  []int
	fps  []uint64
	// byJob indexes jobs by pointer; values are indices into jobs/res/fps.
	// Rebuilt (not reallocated) on every Record.
	byJob map[*Job]int
	valid bool
}

// Valid reports whether the state holds a recorded activation.
func (ws *WarmState) Valid() bool { return ws != nil && ws.valid }

// Record remembers mapping as the solution of p. Jobs mapped to Unmapped
// (a rejected predicted job, say) are skipped: they carry no assignment
// worth repairing. The jobs slice is retained by pointer, which also keeps
// the Job values reachable; callers that tear down a simulation should
// drop the WarmState with it.
func (ws *WarmState) Record(p *Problem, mapping []int) {
	ws.jobs = ws.jobs[:0]
	ws.res = ws.res[:0]
	ws.fps = ws.fps[:0]
	if ws.byJob == nil {
		ws.byJob = make(map[*Job]int, len(p.Jobs))
	} else {
		clear(ws.byJob)
	}
	for i, j := range p.Jobs {
		r := mapping[i]
		if r == Unmapped {
			continue
		}
		ws.byJob[j] = len(ws.jobs)
		ws.jobs = append(ws.jobs, j)
		ws.res = append(ws.res, r)
		ws.fps = append(ws.fps, driftHash(j, r))
	}
	ws.valid = true
}

// driftHash fingerprints the part of a job's feasibility entry that
// changes only when the job actually executed or migrated since the
// previous activation: the remaining work on the assigned resource
// (entry times are excluded deliberately — every real job ages between
// activations, and aging alone does not drift an assignment). It reuses
// the entry-hash mixer of the PR 5 fingerprint machinery.
func driftHash(j *Job, r int) uint64 {
	return mix64(math.Float64bits(j.Rem(r)) ^ 0xd6e8feb86659fd93)
}

// MappingDelta describes how a problem differs from the activation a
// WarmState recorded. The zero value is ready to use; Delta reuses its
// storage across calls.
type MappingDelta struct {
	// PrevRes holds, per p.Jobs[i], the resource the job was mapped to in
	// the recorded activation, or Unmapped for a job the previous solve
	// did not place (an added job).
	PrevRes []int
	// Kept counts jobs present in both activations, Added the jobs only in
	// the current problem, Removed the recorded jobs that are gone
	// (finished, or a dropped prediction).
	Kept, Added, Removed int
	// Drifted counts kept jobs whose remaining-work fingerprint changed —
	// the job executed or picked up migration debt since the recording —
	// so its retained assignment costs a different energy than before.
	Drifted int
}

// Delta computes the difference between p and the recorded activation
// into d, reusing d's storage. It reports false — leaving d unspecified —
// when no activation is recorded.
func (ws *WarmState) Delta(p *Problem, d *MappingDelta) bool {
	if !ws.Valid() {
		return false
	}
	m := len(p.Jobs)
	if cap(d.PrevRes) < m {
		d.PrevRes = make([]int, m)
	}
	d.PrevRes = d.PrevRes[:m]
	d.Kept, d.Added, d.Drifted = 0, 0, 0
	for i, j := range p.Jobs {
		pi, ok := ws.byJob[j]
		if !ok {
			d.PrevRes[i] = Unmapped
			d.Added++
			continue
		}
		d.PrevRes[i] = ws.res[pi]
		d.Kept++
		if driftHash(j, ws.res[pi]) != ws.fps[pi] {
			d.Drifted++
		}
	}
	d.Removed = len(ws.jobs) - d.Kept
	return true
}
