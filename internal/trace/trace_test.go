package trace

import (
	"bytes"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/task"
)

func testSet(t *testing.T) *task.Set {
	t.Helper()
	s, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(1))
	if err != nil {
		t.Fatalf("task.Generate: %v", err)
	}
	return s
}

func TestGenerateBasics(t *testing.T) {
	ts := testSet(t)
	tr, err := Generate(ts, DefaultGenConfig(VeryTight), rng.New(2))
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	if tr.Len() != 500 {
		t.Fatalf("trace length %d, want 500", tr.Len())
	}
	if err := tr.Validate(ts); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if tr.Requests[0].Arrival != 0 {
		t.Fatalf("first arrival %v, want 0", tr.Requests[0].Arrival)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	ts := testSet(t)
	a, _ := Generate(ts, DefaultGenConfig(LessTight), rng.New(5))
	b, _ := Generate(ts, DefaultGenConfig(LessTight), rng.New(5))
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different traces")
	}
}

func TestMeanInterarrival(t *testing.T) {
	ts := testSet(t)
	cfg := DefaultGenConfig(VeryTight)
	cfg.Length = 5000
	tr, err := Generate(ts, cfg, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	if m := tr.MeanInterarrival(); math.Abs(m-1.2) > 0.05 {
		t.Fatalf("mean interarrival %.4f, want ~1.2", m)
	}
	empty := &Trace{Requests: []Request{{Arrival: 1, Deadline: 1}}}
	if empty.MeanInterarrival() != 0 {
		t.Fatal("single-request trace should have zero mean interarrival")
	}
}

func TestDeadlineCoefficientsWithinGroupRange(t *testing.T) {
	ts := testSet(t)
	for _, tt := range []Tightness{VeryTight, LessTight} {
		lo, hi := tt.CoeffRange()
		tr, err := Generate(ts, DefaultGenConfig(tt), rng.New(7))
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range tr.Requests {
			ty := ts.Type(r.Type)
			// Deadline must be some executable WCET times a coefficient in
			// [lo, hi]: check that at least one resource satisfies that.
			ok := false
			for ri := range ty.WCET {
				if !ty.ExecutableOn(ri) {
					continue
				}
				c := r.Deadline / ty.WCET[ri]
				if c >= lo-1e-9 && c <= hi+1e-9 {
					ok = true
					break
				}
			}
			if !ok {
				t.Fatalf("%v request %d: deadline %.3f matches no WCETxcoeff", tt, i, r.Deadline)
			}
		}
	}
}

func TestVTTighterThanLT(t *testing.T) {
	ts := testSet(t)
	vt, _ := Generate(ts, DefaultGenConfig(VeryTight), rng.New(8))
	lt, _ := Generate(ts, DefaultGenConfig(LessTight), rng.New(8))
	mean := func(tr *Trace) float64 {
		var s float64
		for _, r := range tr.Requests {
			s += r.Deadline
		}
		return s / float64(tr.Len())
	}
	if mean(vt) >= mean(lt) {
		t.Fatalf("VT mean deadline %.2f not tighter than LT %.2f", mean(vt), mean(lt))
	}
}

func TestGenerateGroup(t *testing.T) {
	ts := testSet(t)
	cfg := DefaultGenConfig(VeryTight)
	cfg.Length = 50
	trs, err := GenerateGroup(ts, cfg, 10, rng.New(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(trs) != 10 {
		t.Fatalf("got %d traces, want 10", len(trs))
	}
	if reflect.DeepEqual(trs[0], trs[1]) {
		t.Fatal("group traces identical; streams not split")
	}
	if _, err := GenerateGroup(ts, cfg, 0, rng.New(4)); err == nil {
		t.Fatal("accepted zero count")
	}
}

func TestValidateRejects(t *testing.T) {
	ts := testSet(t)
	cases := []struct {
		name string
		tr   Trace
	}{
		{"empty", Trace{}},
		{"unordered", Trace{Requests: []Request{{Arrival: 2, Type: 0, Deadline: 1}, {Arrival: 1, Type: 0, Deadline: 1}}}},
		{"bad-deadline", Trace{Requests: []Request{{Arrival: 0, Type: 0, Deadline: 0}}}},
		{"bad-type", Trace{Requests: []Request{{Arrival: 0, Type: 1000, Deadline: 1}}}},
		{"nan-deadline", Trace{Requests: []Request{{Arrival: 0, Type: 0, Deadline: math.NaN()}}}},
		{"inf-deadline", Trace{Requests: []Request{{Arrival: 0, Type: 0, Deadline: math.Inf(1)}}}},
		{"nan-arrival", Trace{Requests: []Request{{Arrival: 1, Type: 0, Deadline: 1}, {Arrival: math.NaN(), Type: 0, Deadline: 1}}}},
		{"inf-arrival", Trace{Requests: []Request{{Arrival: math.Inf(1), Type: 0, Deadline: 1}}}},
	}
	for _, c := range cases {
		if err := c.tr.Validate(ts); err == nil {
			t.Errorf("%s: Validate accepted invalid trace", c.name)
		}
	}
	// Non-finite inputs are rejected with the named errors.
	for _, c := range []struct {
		req  Request
		want error
	}{
		{Request{Arrival: math.NaN(), Deadline: 1}, ErrNonFiniteArrival},
		{Request{Arrival: math.Inf(-1), Deadline: 1}, ErrNonFiniteArrival},
		{Request{Deadline: math.NaN()}, ErrNonFiniteDeadline},
		{Request{Deadline: math.Inf(1)}, ErrNonFiniteDeadline},
	} {
		tr := Trace{Requests: []Request{c.req}}
		if err := tr.Validate(ts); !errors.Is(err, c.want) {
			t.Errorf("%+v: Validate = %v, want %v", c.req, err, c.want)
		}
	}
	var nilTrace *Trace
	if err := nilTrace.Validate(ts); !errors.Is(err, ErrNilTrace) {
		t.Errorf("nil trace: Validate = %v, want %v", err, ErrNilTrace)
	}
}

func TestGenConfigValidate(t *testing.T) {
	good := DefaultGenConfig(VeryTight)
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []GenConfig{
		{},
		{Length: 5, InterarrivalMean: -1},
		{Length: 5, InterarrivalMean: 1, InterarrivalStd: -1},
		{Length: 5, InterarrivalMean: 1, Tightness: Tightness(9)},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: accepted bad config", i)
		}
	}
}

func TestTightnessString(t *testing.T) {
	if VeryTight.String() != "VT" || LessTight.String() != "LT" {
		t.Fatal("Tightness.String mismatch")
	}
	if !strings.HasPrefix(Tightness(4).String(), "Tightness(") {
		t.Fatal("unknown tightness string")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	ts := testSet(t)
	cfg := DefaultGenConfig(LessTight)
	cfg.Length = 100
	tr, err := Generate(ts, cfg, rng.New(10))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("JSON round trip changed the trace")
	}
}

func TestFileRoundTrip(t *testing.T) {
	ts := testSet(t)
	cfg := DefaultGenConfig(VeryTight)
	cfg.Length = 20
	tr, err := Generate(ts, cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.json")
	if err := tr.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("file round trip changed the trace")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not json")); err == nil {
		t.Fatal("Read accepted garbage")
	}
	if _, err := Read(strings.NewReader(`{"requests":[]}`)); err == nil {
		t.Fatal("Read accepted empty trace")
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("ReadFile accepted missing file")
	}
}

func TestPropertyArrivalsMonotone(t *testing.T) {
	ts := testSet(t)
	f := func(seed uint64, vt bool) bool {
		tt := LessTight
		if vt {
			tt = VeryTight
		}
		cfg := DefaultGenConfig(tt)
		cfg.Length = 200
		tr, err := Generate(ts, cfg, rng.New(seed))
		if err != nil {
			return false
		}
		for i := 1; i < tr.Len(); i++ {
			if tr.Requests[i].Arrival <= tr.Requests[i-1].Arrival {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
