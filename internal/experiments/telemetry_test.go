package experiments

import "testing"

// TestTelemetryProbe checks that the per-run telemetry report aggregates
// real data: every variant solved once per request, the solver-latency
// histogram is populated, and prediction variants planned reservations.
func TestTelemetryProbe(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Traces = 3
	cfg.TraceLen = 40
	r, err := TelemetryProbe(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Table.Rows) != 4 {
		t.Fatalf("rows: got %d, want 4", len(r.Table.Rows))
	}
	wantRequests := int64(cfg.Traces * cfg.TraceLen)
	for name, snap := range r.PerVariant {
		if got := snap.Counters["sim.requests"]; got != wantRequests {
			t.Errorf("%s: sim.requests = %d, want %d", name, got, wantRequests)
		}
		lat := snap.Histograms["sim.solver_seconds"]
		if lat.Count != wantRequests {
			t.Errorf("%s: solver latency observations = %d, want %d", name, lat.Count, wantRequests)
		}
		if lat.Count > 0 && lat.Sum <= 0 {
			t.Errorf("%s: solver latency sum not positive", name)
		}
		acc := snap.Counters["sim.accepted"]
		rej := snap.Counters["sim.rejected"]
		if acc+rej != wantRequests {
			t.Errorf("%s: accepted %d + rejected %d != %d", name, acc, rej, wantRequests)
		}
	}
	for _, name := range []string{"heuristic+pred", "MILP+pred"} {
		if r.PerVariant[name].Counters["sim.reservations_planned"] == 0 {
			t.Errorf("%s: no reservations planned under perfect prediction", name)
		}
		if r.PerVariant[name].Counters["sim.predictions"] == 0 {
			t.Errorf("%s: no predictions recorded", name)
		}
	}
	// The heuristic solver registered its own instruments through the
	// Instrumentable attachment in sim.Run.
	if r.PerVariant["heuristic"].Counters["core.solves"] == 0 {
		t.Error("core.solves not recorded")
	}
	if r.PerVariant["MILP"].Counters["exact.solves"] == 0 {
		t.Error("exact.solves not recorded")
	}
	// The exact solver's cross-activation pruning cache fronts the EDF
	// simulation only, which runs when a list holds a future release. With
	// prediction it must be doing real work on a sweep: consecutive
	// activations share most of their admitted state, so those probes
	// repeat and hit. Without prediction no probe needs the simulation,
	// so the cache sees none.
	// The hit rate readers derive from the counters lies in (0,1): the
	// cache hits, and a fresh cache misses before it can.
	pc := r.PerVariant["MILP+pred"].Counters
	if hits := pc["exact.cache.hits"]; hits == 0 {
		t.Error("MILP+pred: exact.cache.hits is zero: the pruning cache never hit across activations")
	} else if rate := float64(hits) / float64(hits+pc["exact.cache.misses"]); rate >= 1 {
		t.Errorf("MILP+pred: exact cache hit rate = %v, want in (0,1)", rate)
	}
	if h, m := r.PerVariant["MILP"].Counters["exact.cache.hits"], r.PerVariant["MILP"].Counters["exact.cache.misses"]; h != 0 || m != 0 {
		t.Errorf("MILP: cache probes recorded without prediction: hits=%d misses=%d", h, m)
	}
	if r.Merged.Counters["sim.requests"] != 4*wantRequests {
		t.Errorf("merged requests: got %d, want %d", r.Merged.Counters["sim.requests"], 4*wantRequests)
	}
}
