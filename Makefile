GO ?= go
GOFMT ?= gofmt

.PHONY: check build test vet fmtcheck race allocs fuzz bench benchcheck tracecheck cli benchmod

# check is the repo gate: vet, formatting, build everything, run the full
# test suite under the race detector (every differential, golden and
# end-to-end test, including the sharded epochs' shard solves claimed by
# the caller and helper goroutines, a late helper racing the next epoch,
# and the wall-clock server), run the allocation budgets the race build
# skips, audit the golden trace with the replay checker, fuzz the
# heuristic against its seed implementation and the trace reader, spec
# parser and request decoder against hostile input, smoke-run the rmsim
# and experiments command-line wiring and the examples, vet and test the
# bench/ module against the current API, and gate the hot-path benchmarks
# against the committed baseline (skip: BENCHCHECK=0).
check: vet fmtcheck build race allocs fuzz tracecheck cli benchmod benchcheck

# fmtcheck fails when any Go file is not gofmt-formatted (gofmt -l output
# is the offending file list).
fmtcheck:
	@unformatted=$$($(GOFMT) -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "fmtcheck: gofmt needed on:"; \
		echo "$$unformatted"; \
		exit 1; \
	else \
		echo "fmtcheck: ok"; \
	fi

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# allocs runs the allocation-budget tests (files tagged !race, since the
# race detector allocates on its own): a steady-state activation, the
# admission fallback at a saturated load, a sharded epoch, the state probe,
# Problem.Schedule with a warm scratch, the exact solver's ordering and
# the heuristic arena's geometric growth.
allocs:
	$(GO) test -run 'AllocBudget' ./internal/sched ./internal/exact ./internal/engine ./internal/core

# fuzz explores random platforms of 1-80 resources (both candidate sources
# of the heuristic) beyond the committed seed corpus, asserting Solve
# matches the seed implementation with and without provenance and cache,
# then random jobs, types and migration policies, asserting the per-job
# cost terms the heuristic hoists equal Job.CPM/EPM bit for bit, then
# random entry lists probed at shifting activation times through a
# 64-slot feasibility cache (collisions, slots left from earlier
# activations), asserting every verdict equals the uncached check. Then
# arbitrary JSONL through the trace reader, timeline, report, exporters,
# auditor, diff and explanation, and arbitrary platform specs through
# platform.Parse and its Spec round trip: hostile input yields
# diagnostics or errors, never a panic. Last, arbitrary bytes as a
# POST /v1/requests body to a step-mode server: 200 exactly when a strict
# decode accepts one well-formed request, otherwise a 400 with an error
# body, never a 500, a panic or a deadline miss.
fuzz:
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzHeuristicMatchesReference$$' -fuzztime=10s
	$(GO) test ./internal/core -run '^$$' -fuzz '^FuzzJobTermsMatchCPM$$' -fuzztime=10s
	$(GO) test ./internal/sched -run '^$$' -fuzz '^FuzzFeasCacheMatchesDirect$$' -fuzztime=10s
	$(GO) test ./internal/traceview -run '^$$' -fuzz '^FuzzDecodeTimeline$$' -fuzztime=10s
	$(GO) test ./internal/platform -run '^$$' -fuzz '^FuzzParse$$' -fuzztime=10s
	$(GO) test ./internal/serve -run '^$$' -fuzz '^FuzzSubmitRequest$$' -fuzztime=10s

# benchmod vets and tests the end-to-end benchmark harness, a module of its
# own under bench/ that ./... at the root never reaches. go test, unlike
# go build, leaves no binary in the tree.
benchmod:
	cd bench && $(GO) vet ./... && $(GO) test ./...

# bench runs every benchmark and also writes a machine-readable summary
# (ns/op, B/op, allocs/op per benchmark) for regression tracking.
bench:
	$(GO) test -bench=. -benchmem ./... | $(GO) run ./cmd/benchjson -out BENCH.json

# benchcheck reruns the hot-path benchmarks (solver entry points and
# per-activation feasibility probes) and gates them against the committed
# BENCH.json baseline: fail past +15% ns/op or any allocs/op increase.
# Set BENCHCHECK=0 to skip (e.g. on noisy shared machines).
BENCHCHECK ?= 1
benchcheck:
	@if [ "$(BENCHCHECK)" = "0" ]; then \
		echo "benchcheck: skipped (BENCHCHECK=0)"; \
	else \
		$(GO) test -run='^$$' -bench='HeuristicSolve|HeuristicRepair|OptimalSolve|OptimalWarmStart|ResourceFeasible|SimulateEDF|FeasibleSorted' -benchmem \
			./internal/sched/ ./internal/exact/ ./internal/core/ | $(GO) run ./cmd/benchjson -out= -compare BENCH.json; \
	fi

# tracecheck replays the golden event trace through the auditor: the
# recorded run must satisfy every resource-manager invariant.
tracecheck:
	$(GO) run ./cmd/tracetool check internal/sim/testdata/events.golden.jsonl

# cli smoke-runs rmsim's flag wiring (prediction, each engine, the
# budgeted fallback chain with injected faults, the exact engine running
# out of a node budget inside that chain, batch epochs on one and on two
# shards, the Gantt view), a tracegen -> rmsim -taskset/-trace round
# trip, two one-trace experiments (the MILP-vs-heuristic table and the
# telemetry report with -metrics-out), and every program under examples/.
# Any non-zero exit fails it; rmsim exits 1 on a deadline miss.
cli:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o "$$tmp/" ./cmd/rmsim ./cmd/tracegen ./cmd/experiments ./examples/...; \
	run() { echo "cli: rmsim $$*"; "$$tmp/rmsim" "$$@" >/dev/null; }; \
	run -predict -len 120 -seed 7; \
	run -engine greedy; \
	run -engine milp -len 40; \
	run -solver-budget 2000 -fault-plan seed=7,solver-error=0.2; \
	run -engine milp -predict -len 120 -seed 7 -interarrival 2.2 -solver-budget 500; \
	run -batch-window 1; \
	run -shards 2 -platform 16c2g -batch-window 1; \
	run -gantt 20; \
	"$$tmp/tracegen" -out "$$tmp/tr" -count 1 -len 60 >/dev/null; \
	run -taskset "$$tmp/tr/taskset.json" -trace "$$tmp/tr/trace-VT-000.json" -predict; \
	exp() { echo "cli: experiments $$*"; "$$tmp/experiments" "$$@" >/dev/null; }; \
	exp -exp milp-vs-heuristic -traces 1 -len 30; \
	exp -exp telemetry -traces 1 -len 30 -metrics-out "$$tmp/m.json"; \
	for d in examples/*/; do \
		ex=$$(basename "$$d"); echo "cli: example $$ex"; "$$tmp/$$ex" >/dev/null; \
	done; \
	echo "cli: ok"
