package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/sched"
	"predrm/internal/task"
	"predrm/internal/telemetry"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

const digestGolden = "testdata/digest.golden"

// TestHeuristicDigestGolden pins the heuristic's observable behaviour on
// large platforms, one SHA-256 per problem:
//
//   - solve/<mode>/<platform>: the Decision (an infeasible one with the
//     partial plan, see solveWithPlan) plus the canonical JSON of
//     the provenance recorded by a Solve with a ProvRecorder attached, in
//     regret and greedy modes, over seeded bigProblem populations that
//     include infeasible problems;
//   - repair/<platform>: Repair's (mapping, energy, ok) over seeded
//     consecutive activation pairs.
//
// Every digest is independent of which candidate source (the m×n
// matrices or the per-type index) produced it; the file must never change
// unless the decisions or their provenance are meant to.
// Regenerate with: go test ./internal/core -run DigestGolden -update-golden
func TestHeuristicDigestGolden(t *testing.T) {
	var buf bytes.Buffer
	for _, spec := range []string{"28c4g", "56c8g"} {
		plat, set := digestPlatform(t, spec)
		for _, greedy := range []bool{false, true} {
			mode := "regret"
			if greedy {
				mode = "greedy"
			}
			rec := telemetry.NewProvRecorder()
			h := &Heuristic{Greedy: greedy}
			h.AttachProvenance(rec)
			r := rng.New(uint64(len(spec))*977 + 3)
			feasible, infeasible := 0, 0
			for trial := 0; trial < 60; trial++ {
				p := bigProblem(r, plat, set, float64(trial)*60)
				rec.Reset()
				d := solveWithPlan(h, p)
				if d.Feasible {
					feasible++
				} else {
					infeasible++
				}
				digestLine(t, &buf, fmt.Sprintf("solve/%s/%s", mode, spec), trial, d, rec.Snapshot())
			}
			if feasible == 0 || infeasible == 0 {
				t.Fatalf("%s/%s: one-sided population (%d feasible, %d infeasible)",
					spec, mode, feasible, infeasible)
			}
		}
	}

	plat, set := digestPlatform(t, "28c4g")
	r := rng.New(29)
	h := &Heuristic{Cache: sched.NewFeasCache(0)}
	repaired, attempts := 0, 0
	for trial := 0; trial < 480; trial++ {
		var ws sched.WarmState
		p := bigProblem(r, plat, set, float64(trial)*60)
		d := h.Solve(p)
		if !d.Feasible {
			continue
		}
		attempts++
		ws.Record(p, d.Mapping)
		nextID := 1000
		p = nextActivation(r, p, d.Mapping, set, &nextID, 1+r.Intn(3))
		m, e, ok := h.Repair(p, &ws)
		if ok {
			repaired++
		}
		digestLine(t, &buf, "repair/28c4g", trial, struct {
			Mapping []int
			Energy  float64
			OK      bool
		}{m, e, ok}, nil)
	}
	if repaired == 0 {
		t.Fatal("repair population never succeeded")
	}
	t.Logf("repair: %d of %d feasible seeds repaired", repaired, attempts)

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(digestGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(digestGolden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(digestGolden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got, exp := bytes.Split(buf.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(got) && i < len(exp); i++ {
			if !bytes.Equal(got[i], exp[i]) {
				t.Fatalf("digest diverged at line %d:\ngot  %s\nwant %s", i+1, got[i], exp[i])
			}
		}
		t.Fatalf("digest length %d lines, golden %d", len(got), len(exp))
	}
}

// digestPlatform parses spec and generates its seeded task set.
func digestPlatform(t *testing.T, spec string) (*platform.Platform, *task.Set) {
	t.Helper()
	plat, err := platform.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	set, err := task.Generate(plat, task.DefaultGenConfig(), rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	return plat, set
}

// digestLine appends "<label> <trial> <sha256>" over the canonical JSON of
// v and prov.
func digestLine(t *testing.T, buf *bytes.Buffer, label string, trial int, v any, prov *telemetry.Provenance) {
	t.Helper()
	h := sha256.New()
	for _, x := range []any{v, prov} {
		b, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
		h.Write([]byte{'\n'})
	}
	fmt.Fprintf(buf, "%s %d %x\n", label, trial, h.Sum(nil))
}
