package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"

	"predrm/internal/trace"
)

// SubmitRequest is the POST /v1/requests body: one arriving adaptive
// request. The arrival time is the server's clock reading at intake —
// callers do not timestamp their own requests.
type SubmitRequest struct {
	// Type indexes the configured task set.
	Type int `json:"type"`
	// Deadline is the relative deadline in engine time units.
	Deadline float64 `json:"deadline"`
}

// DecisionRecord is the admission decision for one request, returned
// synchronously from POST /v1/requests and re-readable at
// GET /v1/decisions/{id}.
type DecisionRecord struct {
	// ID is the dense request id (the engine's request index).
	ID int `json:"id"`
	// Type echoes the submitted task type.
	Type int `json:"type"`
	// Arrival is the engine time the request was taken in at.
	Arrival float64 `json:"arrival"`
	// Deadline echoes the submitted relative deadline.
	Deadline float64 `json:"deadline"`
	// Time is the engine time the decision was taken at (arrival plus
	// decision overhead).
	Time float64 `json:"time"`
	// Accepted reports admission.
	Accepted bool `json:"accepted"`
	// Resource is the mapped resource id, or -1 (sched.Unmapped) on
	// rejection.
	Resource int `json:"resource"`
	// Reason is the enumerated decision reason (telemetry vocabulary).
	Reason string `json:"reason"`
	// Energy is the admitted decision's planned energy (0 on rejection).
	Energy float64 `json:"energy"`
}

// maxBodyBytes caps a POST /v1/requests body.
const maxBodyBytes = 1 << 20

type apiError struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, apiError{Error: fmt.Sprintf(format, args...)})
}

// handleSubmit is POST /v1/requests: stamp the arrival from the clock,
// run one activation of the admission protocol, and return the decision.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var in SubmitRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&in); err != nil {
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return
	}
	// The body is exactly one object: a second value or trailing bytes
	// would otherwise be dropped silently.
	if _, err := dec.Token(); err != io.EOF {
		writeError(w, http.StatusBadRequest, "bad request body: trailing data after the request object")
		return
	}
	if ts := s.cfg.Engine.TaskSet; in.Type < 0 || (ts != nil && in.Type >= ts.Len()) {
		writeError(w, http.StatusBadRequest, "unknown task type %d", in.Type)
		return
	}
	if in.Deadline <= 0 {
		writeError(w, http.StatusBadRequest, "deadline must be positive, got %g", in.Deadline)
		return
	}

	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is shutting down")
		return
	}
	if s.failure != nil {
		err := s.failure
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "engine failed: %v", err)
		return
	}
	// Engine time is monotone across decisions; a clock reading taken just
	// before a slow activation finished may trail the engine, so clamp.
	arr := s.clock.Now()
	if n := s.eng.Now(); n > arr {
		arr = n
	}
	id := s.eng.Requests()
	out, err := s.eng.Activate(id, trace.Request{Arrival: arr, Type: in.Type, Deadline: in.Deadline})
	if err != nil {
		s.failure = err
		s.mu.Unlock()
		writeError(w, http.StatusInternalServerError, "activation failed: %v", err)
		return
	}
	rec := DecisionRecord{
		ID:       id,
		Type:     in.Type,
		Arrival:  arr,
		Deadline: in.Deadline,
		Time:     out.Time,
		Accepted: out.Accepted,
		Resource: out.Resource,
		Reason:   out.Reason,
		Energy:   out.Energy,
	}
	s.decisions = append(s.decisions, rec)
	s.mu.Unlock()

	// The admitted job changed the standing plan; wake the dispatcher so
	// its timer tracks the new next event.
	s.kickDispatcher()
	writeJSON(w, http.StatusOK, rec)
}

// handleDecision is GET /v1/decisions/{id}.
func (s *Server) handleDecision(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "bad decision id %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id < 0 || id >= len(s.decisions) {
		writeError(w, http.StatusNotFound, "no decision %d (have %d)", id, len(s.decisions))
		return
	}
	writeJSON(w, http.StatusOK, s.decisions[id])
}
