package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"predrm/internal/platform"
	"predrm/internal/rng"
	"predrm/internal/task"
)

// strictAccepts is the fuzz oracle for POST /v1/requests: the body must be
// exactly one JSON value that json.Unmarshal takes as a SubmitRequest,
// with no field outside it, a known type and a positive deadline.
func strictAccepts(body []byte, types int) bool {
	if len(body) > maxBodyBytes {
		return false
	}
	var in SubmitRequest
	if err := json.Unmarshal(body, &in); err != nil {
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(new(SubmitRequest)); err != nil {
		return false
	}
	return in.Type >= 0 && in.Type < types && in.Deadline > 0
}

// FuzzSubmitRequest posts arbitrary bytes to an in-process step-mode
// server: the answer is 200 exactly when strictAccepts holds and a 400
// with an {"error": ...} body otherwise — never a 500 or a panic — and
// the drained run misses no deadline.
func FuzzSubmitRequest(f *testing.F) {
	set, err := task.Generate(platform.Default(), task.DefaultGenConfig(), rng.New(9))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		`{"type":0,"deadline":10}{"type":1,"deadline":3}`,
		"{not json",
		`{"type": 999, "deadline": 10}`,
		`{"type": 0, "deadline": 0}`,
		`{"type": 0, "deadline": 10, "bogus": 1}`,
		`{"type": 0, "deadline": 10}`,
		`{"type": 1, "deadline": 10}`, // admitted: the drain runs a job
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		clock := &ManualClock{}
		clock.Set(1)
		srv, err := New(Config{Engine: baseEngine(set), Clock: clock})
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/v1/requests", bytes.NewReader(body))
		rw := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rw, req)

		want := strictAccepts(body, set.Len())
		switch {
		case want && rw.Code == http.StatusOK:
			var rec DecisionRecord
			if err := json.Unmarshal(rw.Body.Bytes(), &rec); err != nil || rec.ID != 0 {
				t.Fatalf("200 with a bad decision %q: %v", rw.Body, err)
			}
		case !want && rw.Code == http.StatusBadRequest:
			var e apiError
			if err := json.Unmarshal(rw.Body.Bytes(), &e); err != nil || e.Error == "" {
				t.Fatalf("400 without an error body: %q", rw.Body)
			}
		default:
			t.Fatalf("body %q: status %d, strict decode accepts: %v\n%s", body, rw.Code, want, rw.Body)
		}

		if err := srv.Shutdown(context.Background()); err != nil {
			t.Fatalf("shutdown: %v", err)
		}
		if res := srv.Result(); res.DeadlineMisses != 0 {
			t.Fatalf("body %q: %d deadline misses", body, res.DeadlineMisses)
		}
	})
}
