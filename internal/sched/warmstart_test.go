package sched

import (
	"testing"

	"predrm/internal/platform"
	"predrm/internal/task"
)

func warmProblem() *Problem {
	ts := task.Motivational()
	j1 := NewJob(0, ts.Type(0), 0, 8)
	j2 := NewJob(1, ts.Type(1), 0, 6)
	return &Problem{
		Platform: platform.Motivational(),
		Time:     0,
		Jobs:     []*Job{j1, j2},
	}
}

func TestWarmStateRecordDelta(t *testing.T) {
	p := warmProblem()
	var ws WarmState
	var d MappingDelta
	if ws.Valid() || ws.Delta(p, &d) {
		t.Fatal("zero WarmState claims a recorded activation")
	}
	ws.Record(p, []int{2, 0})
	if !ws.Valid() {
		t.Fatal("Record did not validate the state")
	}
	if !ws.Delta(p, &d) {
		t.Fatal("Delta false against the recorded problem itself")
	}
	if d.Kept != 2 || d.Added != 0 || d.Removed != 0 || d.Drifted != 0 {
		t.Fatalf("self-delta = %+v", d)
	}
	if d.PrevRes[0] != 2 || d.PrevRes[1] != 0 {
		t.Fatalf("PrevRes = %v", d.PrevRes)
	}

	// Next activation: job 0 survives, job 1 completed, one arrival.
	ts := task.Motivational()
	j3 := NewJob(2, ts.Type(1), 1, 6)
	next := &Problem{Platform: p.Platform, Time: 1, Jobs: []*Job{p.Jobs[0], j3}}
	if !ws.Delta(next, &d) {
		t.Fatal("Delta false on the successor activation")
	}
	if d.Kept != 1 || d.Added != 1 || d.Removed != 1 {
		t.Fatalf("successor delta = %+v", d)
	}
	if d.PrevRes[0] != 2 || d.PrevRes[1] != Unmapped {
		t.Fatalf("successor PrevRes = %v", d.PrevRes)
	}

	ws.Invalidate()
	if ws.Valid() || ws.Delta(next, &d) {
		t.Fatal("Invalidate did not clear the state")
	}
}

func TestWarmStateMatchesByPointerNotValue(t *testing.T) {
	// The simulator mutates *Job in place, so pointer identity is the
	// cross-activation job identity; a value-identical clone (a rebuilt
	// predicted job, say) must land on the added side.
	p := warmProblem()
	var ws WarmState
	ws.Record(p, []int{2, 0})
	clone := p.Jobs[0].Clone()
	next := &Problem{Platform: p.Platform, Time: p.Time, Jobs: []*Job{clone, p.Jobs[1]}}
	var d MappingDelta
	if !ws.Delta(next, &d) {
		t.Fatal("Delta false")
	}
	if d.Kept != 1 || d.Added != 1 || d.Removed != 1 {
		t.Fatalf("clone delta = %+v (clone must not match by value)", d)
	}
	if d.PrevRes[0] != Unmapped || d.PrevRes[1] != 0 {
		t.Fatalf("clone PrevRes = %v", d.PrevRes)
	}
}

func TestWarmStateDriftDetection(t *testing.T) {
	// A kept job that executed since the recording changes its remaining
	// work and must be counted as drifted; pure aging (time passing with
	// no execution) must not.
	p := warmProblem()
	var ws WarmState
	ws.Record(p, []int{2, 0})
	var d MappingDelta
	aged := &Problem{Platform: p.Platform, Time: 3, Jobs: p.Jobs}
	if !ws.Delta(aged, &d) || d.Drifted != 0 {
		t.Fatalf("aging counted as drift: %+v", d)
	}
	p.Jobs[0].Frac = 0.5 // executed half its work
	if !ws.Delta(aged, &d) || d.Drifted != 1 {
		t.Fatalf("execution not counted as drift: %+v", d)
	}
	p.Jobs[0].Frac = 1
	p.Jobs[1].MigDebt = 0.25 // picked up migration debt
	if !ws.Delta(aged, &d) || d.Drifted != 1 {
		t.Fatalf("migration debt not counted as drift: %+v", d)
	}
}

func TestWarmStateSkipsUnmapped(t *testing.T) {
	// A job the previous solve did not place (a rejected prediction)
	// carries no assignment worth repairing and must not be recorded.
	p := warmProblem()
	var ws WarmState
	ws.Record(p, []int{2, Unmapped})
	var d MappingDelta
	if !ws.Delta(p, &d) {
		t.Fatal("Delta false")
	}
	if d.Kept != 1 || d.Added != 1 || d.Removed != 0 {
		t.Fatalf("delta = %+v (unmapped job must read as added)", d)
	}
}

func TestEntryFingerprintMatchesListDigest(t *testing.T) {
	// EntryFingerprint is the per-entry term of the multiset digest: a
	// single-entry list's digest must be derived from exactly it, so two
	// entries with equal fingerprints produce equal list digests.
	e := Entry{ReadyAt: 5, Deadline: 25, Rem: 3.5}
	shifted := Entry{ReadyAt: 105, Deadline: 125, Rem: 3.5}
	if EntryFingerprint(5, e) != EntryFingerprint(105, shifted) {
		t.Fatal("time-shifted identical entry changed fingerprint")
	}
	var a, b EntryList
	a.Insert(5, e)
	b.Insert(105, shifted)
	if a.fingerprint(true, 5) != b.fingerprint(true, 105) {
		t.Fatal("entry fingerprints equal but list digests differ")
	}
}

// Invalidate empties the state; the next Delta reports no previous solve.
func (ws *WarmState) Invalidate() {
	if ws == nil {
		return
	}
	ws.valid = false
	ws.jobs = ws.jobs[:0]
	ws.res = ws.res[:0]
	ws.fps = ws.fps[:0]
	clear(ws.byJob)
}

// EntryFingerprint exposes the fingerprint of a single entry normalised
// to activation time t — the per-entry term of the multiset digest that
// EntryList.fingerprint computes (see fingerprint.go).
func EntryFingerprint(t float64, e Entry) uint64 { return entryHash(t, e) }
