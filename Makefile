GO ?= go
BENCHTIME ?= 1x
# Benchmarks run -count $(BENCHCOUNT) and benchdiff -record keeps the
# fastest run per name (min-of-N): scheduler and GC noise only ever adds
# time, so single-sample snapshots systematically overstate cost and make
# the 15% regression gate flappy.
BENCHCOUNT ?= 3
BENCH_OUT ?= BENCH_$(shell date +%F).json
# Perf gate: `make check-perf` reruns the benchmarks and fails on a >15%
# time regression against this snapshot — by default the newest committed
# one (the names sort by date). benchdiff refuses a baseline recorded on a
# different CPU; on such a machine record a local one with `make bench`
# or skip the gate with `make check-perf BENCH_BASELINE=`.
BENCH_BASELINE ?= $(lastword $(sort $(wildcard BENCH_20*.json)))

.PHONY: all check check-perf build fmt vet test determinism race detect-smoke bench bench-sim bench-e2e bench-e2e-test bench-pairs benchdiff benchgate telemetry-overhead trace-golden postmortem-golden experiments-golden fuzz fuzz-smoke churn-fuzz cache-fuzz cover examples experiments clean

all: check

# check is the pre-merge gate, and every target in it is deterministic:
# build, gofmt, vet, tests, the parallel-determinism contract under the
# race detector, the full race suite, the detect-vs-prevent matrix smoke,
# the bounded differential fuzz smokes, the trace-format, post-mortem and
# experiment-output goldens, and the end-to-end benchmark's own tests.
# The two timing gates live in check-perf: on the shared 2-vCPU build VM
# two identical runs differ by 1.2–2.6× on most rows, so a gate that
# compares wall clock against a threshold cannot be green there, and a
# gate that is always red protects nothing.
check: build fmt vet test determinism race detect-smoke fuzz-smoke churn-fuzz cache-fuzz trace-golden postmortem-golden experiments-golden bench-e2e-test

# check-perf is the timing half: the telemetry overhead gate and the
# benchmark regression gate (BENCH_BASELINE= skips the latter). Run it on
# a quiet machine of the baseline's CPU model.
check-perf: telemetry-overhead benchgate

build:
	$(GO) build ./...

# Fails listing every file gofmt would change (bench/ is a module of its
# own but one tree: it is checked too).
fmt:
	@unformatted=$$(gofmt -l .); if [ -n "$$unformatted" ]; then \
		echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

# bench/ is a module of its own: `go vet ./...` never reaches it.
vet:
	$(GO) vet ./...
	$(GO) vet -C bench ./...

test:
	$(GO) test ./...

# The par=1 vs par=N equivalence proofs, under the race detector: the
# parallel synthesis path must emit byte-identical rules and graphs, and
# the sweep runner's verdicts and merged telemetry must be independent of
# the worker count, and so must everything a controller push leaves behind
# and every path, rule and runtime edge the pod stamper emits.
determinism:
	$(GO) test -race -run 'TestParallelDeterminism|TestChaosSweepParDeterminism|TestDetectMatrixParDeterminism' .
	$(GO) test -race -count=1 -run 'TestPushParIndependent' ./internal/controller/
	$(GO) test -race -count=1 -run 'TestStampWorkerIndependent' ./internal/synthcache/

race:
	$(GO) test -race ./...

# The detect-vs-prevent matrix smoke under the race detector: the
# four-arm invariants (tagger prevents + detector stays quiet, detect
# and scan arms recover within bound, the control starves) on a small
# seed set. Part of `make check`.
detect-smoke:
	$(GO) test -race -count=1 -run 'TestDetectMatrixSmoke' .

# Runs every benchmark and records the results as a JSON snapshot
# (BENCH_<date>.json) for the repo's performance trajectory. Override
# BENCHTIME for stabler numbers: make bench BENCHTIME=5x. -p 1 runs one
# package's benchmarks at a time; by default `go test` runs as many
# packages as there are cores side by side, and they time each other.
bench:
	$(GO) test -p 1 -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./... | tee /tmp/bench_run.txt
	$(GO) run ./cmd/benchdiff -record $(BENCH_OUT) /tmp/bench_run.txt

# The event-engine microbenchmarks alone: scheduler push/pop under the
# Figure 12 event mix (lanes, and the same mix forced onto the fallback
# heap), steady-state forwarding (allocs/op must read 0 — gated by
# TestSteadyStateZeroAlloc and the benchgate's -alloc-threshold), and the
# large-Clos soak slice the sweep runner fans out over.
bench-sim:
	$(GO) test -run '^$$' -bench 'BenchmarkEventScheduleDispatch|BenchmarkSteadyStateForwarding|BenchmarkLargeClosSoak' -benchmem -benchtime $(BENCHTIME) ./internal/sim/

# The layered end-to-end benchmark BENCHMARK.json declares (bench/ is a
# module of its own, see bench/README.md): every workload untraced and
# traced, at the driver's run length. Results land in bench/results/.
bench-e2e:
	$(GO) run -C bench repro/bench/e2e -seconds 12

# The benchmark's own tests (small fabrics, a few seconds). `go test
# ./...` does not reach into bench/, so `make check` runs them here.
bench-e2e-test:
	$(GO) test -C bench ./...

# The before/after protocol behind every end-to-end performance claim:
# alternating pairs of bench/e2e runs, BASE's committed files against the
# working tree, seed SEED+i-1 for pair i, with per-metric medians, the
# base's IQR, wins and a verdict (cmd/benchpairs). WORKLOAD may be a
# comma-separated list: one `git archive` and one build per side, then one
# verdict table per workload, so a PR's claimed row and its no-regression
# rows come from one command. ~(2*SECONDS+5)*PAIRS s per workload.
# Usage: make bench-pairs BASE=HEAD~1 WORKLOAD=sim_fig12_tagger,sim_cbd_forensics
PAIRS ?= 10
SECONDS ?= 12
SEED ?= 1
bench-pairs:
	$(GO) run ./cmd/benchpairs -base $(BASE) -workload $(WORKLOAD) -pairs $(PAIRS) -seconds $(SECONDS) -seed $(SEED)

# Compares two snapshots; fails on a >15% time regression.
# Usage: make benchdiff OLD=BENCH_seed.json NEW=BENCH_2026-08-05.json
benchdiff:
	$(GO) run ./cmd/benchdiff $(OLD) $(NEW)

benchgate:
ifeq ($(strip $(BENCH_BASELINE)),)
	@echo "benchgate: skipped (no BENCH_BASELINE)"
else
	$(GO) test -p 1 -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) -count $(BENCHCOUNT) ./... > /tmp/benchgate_run.txt
	$(GO) run ./cmd/benchdiff -record /tmp/benchgate_run.json /tmp/benchgate_run.txt
	$(GO) run ./cmd/benchdiff -alloc-threshold 0.50 $(BENCH_BASELINE) /tmp/benchgate_run.json
endif

# Telemetry must be near-free for hot synthesis code: the instrumented
# Algorithm 2 benchmark (spans + merge counters live, the default) must
# stay within 5% of a TAGGER_TELEMETRY=off run of the same build.
# -count 5 + benchdiff's fastest-run dedupe keeps scheduler noise from
# tripping the tight threshold.
telemetry-overhead:
	TAGGER_TELEMETRY=off $(GO) test -run '^$$' -bench 'BenchmarkAlgorithm2Jellyfish200$$' -benchtime 100x -count 5 . > /tmp/telemetry_off.txt
	$(GO) test -run '^$$' -bench 'BenchmarkAlgorithm2Jellyfish200$$' -benchtime 100x -count 5 . > /tmp/telemetry_on.txt
	$(GO) run ./cmd/benchdiff -record /tmp/telemetry_off.json /tmp/telemetry_off.txt
	$(GO) run ./cmd/benchdiff -record /tmp/telemetry_on.json /tmp/telemetry_on.txt
	$(GO) run ./cmd/benchdiff -threshold 0.05 /tmp/telemetry_off.json /tmp/telemetry_on.json

# Verifies the taggertrace golden fixtures: the checked-in fig10 trace
# captures (JSONL + binary) must render byte-identical reports, and the
# `-o jsonl` downgrade of the binary capture must be byte-identical to
# the JSONL capture. After an INTENTIONAL trace-format or report change,
# regenerate with `make trace-golden UPDATE=1` and review the diff (the
# binary header/entry layout is versioned — bump trace.Version when the
# wire layout itself changes).
trace-golden:
ifeq ($(strip $(UPDATE)),)
	$(GO) test -count=1 -run 'TestGolden' ./cmd/taggertrace/
else
	$(GO) test -count=1 -run 'TestGolden' ./cmd/taggertrace/ -update
endif

# Verifies the flight-recorder forensics goldens: the checked-in seeded
# incident capture (the detect arm's Fig 3 CBD onset) must render a
# byte-identical post-mortem report, a fresh capture of the same seed
# must be byte-identical to the checked-in one, and the recorder's
# steady-state record path must stay allocation-free. After an
# INTENTIONAL snapshot-encoding or report-layout change, regenerate with
# `make postmortem-golden UPDATE=1` and review the diff.
postmortem-golden:
ifeq ($(strip $(UPDATE)),)
	$(GO) test -count=1 -run 'TestGoldenPostmortem' ./cmd/taggertrace/
else
	$(GO) test -count=1 -run 'TestGoldenPostmortem' ./cmd/taggertrace/ -update
endif
	$(GO) test -count=1 -run 'ZeroAlloc' ./internal/trace/ ./internal/sim/

# Verifies taggersim's stdout, byte for byte, for every entry of the
# experiment table (tagger.Experiments()) plus the -trace and -flightrec
# modes, against goldens first captured from the pre-registry binary;
# also the registry-shape, docs-drift, rejected-flag and
# failure-unwinds-through-defers tests. After an INTENTIONAL output
# change, regenerate with `make experiments-golden UPDATE=1` and review
# the diff.
experiments-golden:
ifeq ($(strip $(UPDATE)),)
	$(GO) test -count=1 ./cmd/taggersim/
else
	$(GO) test -count=1 ./cmd/taggersim/ -update
endif

fuzz:
	$(GO) test -fuzz FuzzDecodeRoCEv2 -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzDecodeIPv4 -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzDecodePFC -fuzztime 30s ./internal/wire/
	$(GO) test -fuzz FuzzRunCase -fuzztime 60s ./internal/check/
	$(GO) test -fuzz FuzzShrinkConvergence -fuzztime 30s ./internal/check/
	$(GO) test -fuzz FuzzTraceDecode -fuzztime 30s ./internal/trace/
	$(GO) test -fuzz FuzzPathIndex -fuzztime 30s ./internal/routing/
	$(GO) test -fuzz FuzzBundleImport -fuzztime 30s ./internal/deploy/
	$(GO) test -fuzz FuzzSchedulerOrder -fuzztime 30s ./internal/sim/

# Bounded differential fuzzing for the pre-merge gate: a few seconds of
# native coverage-guided fuzzing over the check battery, the path index
# (against its string-keyed reference), the bundle decoder and the sim's
# event scheduler (against a sorted slice), plus a
# seeded taggerfuzz sweep of every topology family. Failing inputs shrink to
# runnable repro tests under internal/check/testdata/fuzz-corpus/.
fuzz-smoke:
	$(GO) test -fuzz FuzzRunCase -fuzztime 5s ./internal/check/
	$(GO) test -fuzz FuzzPathIndex -fuzztime 5s ./internal/routing/
	$(GO) test -fuzz FuzzBundleImport -fuzztime 5s ./internal/deploy/
	$(GO) test -fuzz FuzzSchedulerOrder -fuzztime 5s ./internal/sim/
	$(GO) run ./cmd/taggerfuzz -seeds 25 -topo all -q

# The churn differential: fuzzed link-flap/drain/pod-add sequences where
# every step's incremental re-synthesis must match from-scratch synthesis
# rule-for-rule and re-pass the Theorem 5.1 oracle. Failures shrink to
# minimal event sequences.
churn-fuzz:
	$(GO) run ./cmd/taggerfuzz -churn -seeds 25 -q

# The synthesis-cache differential: every seed's synthesis served through
# one shared fingerprint-keyed cache (cold build, same-instance rehit,
# isomorphic twin instance) must be rule-for-rule identical to
# from-scratch synthesis and re-pass the oracle. Runs under the race
# detector: parallel seeds against the shared cache exercise the
# single-flight and LRU-eviction machinery concurrently.
cache-fuzz:
	$(GO) run -race ./cmd/taggerfuzz -cache -seeds 25 -q
	$(GO) test -race -count=1 -run 'TestCacheSweepShared' ./internal/check/

cover:
	$(GO) test -cover ./...

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/clos-deadlock
	$(GO) run ./examples/jellyfish-scale
	$(GO) run ./examples/bcube
	$(GO) run ./examples/controller-ops

experiments:
	$(GO) run ./cmd/taggergen -topo fig5 -rules
	$(GO) run ./cmd/taggersim -exp fig10
	$(GO) run ./cmd/taggersim -exp fig11
	$(GO) run ./cmd/taggersim -exp fig12
	$(GO) run ./cmd/taggersim -exp reconverge
	$(GO) run ./cmd/taggersim -exp table1
	$(GO) run ./cmd/taggersim -exp overhead
	$(GO) run ./cmd/taggersim -exp recovery
	$(GO) run ./cmd/taggersim -exp dcqcn
	$(GO) run ./cmd/taggersim -exp isolation
	$(GO) run ./cmd/taggersim -exp budget
	$(GO) run ./cmd/taggersim -exp compression
	$(GO) run ./cmd/taggersim -exp multiclass
	$(GO) run ./cmd/taggersim -exp chaos
	$(GO) run ./cmd/taggersim -exp churn
	$(GO) run ./cmd/taggersim -exp detect -runs 20
	$(GO) run ./cmd/taggerscale
	$(GO) run ./cmd/taggerscale -bcube

clean:
	$(GO) clean -testcache
