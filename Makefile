# gpuddt — build/test/benchmark entry points (stdlib-only Go, no deps)

GO ?= go

.PHONY: all test race check trace-check chaos-check scale-check megascale-check vcoll-check app-check tune-check fuzz golden bench bench-smoke bench-pairs figures examples tools clean

all: test

test:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Full CI gate: formatting (any file gofmt would rewrite fails it),
# build, vet, race-enabled tests (includes the differential oracle,
# channel round-trips, golden traces, cmd smoke tests and example
# builds), then a short fuzz smoke on both targets.
# trace-check and chaos-check are separate gates (CI runs each as its
# own step), not prerequisites, so no test runs twice per job.
check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test -race ./...
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzPackUnpack -fuzztime 10s
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzDEVSplit -fuzztime 10s

# Tracing gate: the span recorder under -race, conformance round-trips
# with tracing asserted (short matrix), and the golden-identical /
# Chrome-schema checks.
trace-check:
	$(GO) test -race ./internal/sim -run TestRecorder
	$(GO) test -short ./internal/conformance -run TestChannelRoundTrips
	$(GO) test ./internal/bench -run 'TestGoldenFiguresTraced|TestPingPongChromeTrace'
	$(GO) test ./internal/trace

# Chaos gate: the fault subsystem's pinned-seed conformance sweep (pack
# ∘ unpack identity, no leaks, bounded retries across every channel),
# the persistent-P2P downgrade proof, race-enabled PML recovery tests,
# and the golden-figure gate re-asserting that a nil fault plan leaves
# the virtual-time figures byte-identical.
chaos-check:
	$(GO) test ./internal/conformance -run 'TestChaos'
	$(GO) test -race ./internal/mpi -run 'TestChaos'
	$(GO) test ./internal/core -run 'TestPackerSeek'
	$(GO) test ./internal/bench -run TestGoldenFigures
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzChaosPackUnpack -fuzztime 10s

# Scale-out gate: fat-tree topology tests, hierarchical-collective
# flat-identity and chaos sweeps, the pinned >= 2x alltoall speedup at
# 128 ranks, then the CI smoke sweep run twice — the two JSON reports
# must be byte-identical (the sweep is a pure function of its inputs).
scale-check:
	$(GO) test ./internal/ib -run 'TestFatTree|TestFlatFabric'
	$(GO) test ./internal/cluster
	$(GO) test ./internal/mpi -run 'TestHier'
	$(GO) test ./internal/bench -run 'TestScale'
	$(GO) test ./cmd/scalebench
	$(GO) run ./cmd/scalebench -quick -out /tmp/scale-a.json
	$(GO) run ./cmd/scalebench -quick -out /tmp/scale-b.json
	cmp /tmp/scale-a.json /tmp/scale-b.json

# Mega-scale gate: the sharded-engine determinism suite under -race
# (serial-vs-sharded byte identity, lookahead violation, chaos world),
# the modelled-payload digest equivalence against the real protocol
# stack at 64 ranks, the 50x flyweight memory reduction at 256 ranks,
# the quick modelled sweep with its serial-identity gate, the
# 16384-rank alltoall smoke, and the scalebench smoke run.
megascale-check:
	$(GO) test -race ./internal/sim -run TestSharded
	$(GO) test -race ./internal/model
	$(GO) test ./internal/mem -run 'TestSynthetic|TestSpaceRetired|TestPoolStats'
	$(GO) test ./internal/mpi -run TestPayload
	$(GO) test ./internal/bench -run 'TestMega|TestModelReal|TestFlyweight'
	GPUDDT_MEGA=1 $(GO) test ./internal/bench -run TestMegaSmoke16k -v
	$(GO) run ./cmd/scalebench -quick -out /tmp/megascale.json

# Irregular/nonblocking collective gate: the v-variant conformance
# oracle (irregular counts vs the reference walker across CPU/GPU ×
# hier/flat × eager/rendezvous), the race-enabled v-variant +
# nonblocking-request tests (concurrent I*, Waitall, chaos recovery,
# quiescent staging), the pinned >= 30% overlap fraction with its
# golden figure and Chrome trace, and a fuzz smoke on the count-matrix
# target.
vcoll-check:
	$(GO) test ./internal/conformance -run 'TestVColl'
	$(GO) test -race ./internal/mpi -run 'TestVColl|TestAlltoallv|TestAllgatherv|TestGathervScatterv|TestIcoll'
	$(GO) test ./internal/trace -run TestComputeOverlap
	$(GO) test ./internal/bench -run 'TestOverlapFractionPinned|TestOverlapGoldenTrace|TestGoldenFigures$$'
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzAlltoallvCounts -fuzztime 10s

# Application-workload gate: the group-collective oracle (ring/tree vs
# the native allreduce, group-scoped alltoallv/barrier), the typed
# co-scheduling validation table, the grouped Chrome-export schema, the
# race-enabled workload suite (family verification, subarray halo
# spans, the interference smoke and its byte-identical determinism
# re-run), the MoE count-matrix fuzz smoke, and the quick appbench
# sweep run twice — the two JSON reports must be byte-identical.
app-check:
	$(GO) test ./internal/mpi -run 'TestGroup|TestNewGroup'
	$(GO) test ./internal/cluster -run 'TestValidate|TestCoSchedule'
	$(GO) test ./internal/trace -run TestWriteChromeGrouped
	$(GO) test ./internal/mpiio -run TestGroupScopedBarrier
	$(GO) test ./internal/shapes -run TestHaloFace
	$(GO) test -race ./internal/workload
	$(GO) test ./internal/bench -run 'TestAppGrid|TestQuickAppSweep'
	$(GO) test ./cmd/appbench
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzMoECounts -fuzztime 10s
	$(GO) run ./cmd/appbench -quick -out /tmp/apps-a.json
	$(GO) run ./cmd/appbench -quick -out /tmp/apps-b.json
	cmp /tmp/apps-a.json /tmp/apps-b.json

# Auto-tuning gate: the Tuning API resolution tests (pointer-or-
# sentinel eager semantics, pinned defaults), the in-network reduction
# oracle (switch vs flat bit-identity under
# -race), the tuner determinism + table round-trip + version/corruption
# rejection suite, the pinned >= 1.2x tuned-vs-default speedup on an
# oversubscribed fat-tree point, the in-network curve digest gate, and
# a tunebench smoke run twice — the two JSON reports must be
# byte-identical (the search is an exhaustive grid over virtual time).
tune-check:
	$(GO) test ./internal/mpi -run 'TestTuning|TestEagerZeroSentinel|TestCollModeRoundTrip'
	$(GO) test -race ./internal/mpi -run 'TestSwitch'
	$(GO) test ./internal/tune
	$(GO) test ./internal/bench -run 'TestScale|TestQuickAppSweep'
	$(GO) run ./cmd/tunebench -quick -out /tmp/tune-a.json
	$(GO) run ./cmd/tunebench -quick -out /tmp/tune-b.json
	cmp /tmp/tune-a.json /tmp/tune-b.json

# Longer fuzzing session against the differential oracle.
fuzz:
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzPackUnpack -fuzztime 2m
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzDEVSplit -fuzztime 2m
	$(GO) test ./internal/conformance -run '^$$' -fuzz FuzzChaosPackUnpack -fuzztime 2m

# Re-record golden traces after an explained behavioural change.
golden:
	$(GO) test ./internal/bench -run TestGoldenFigures -update
	$(GO) test ./internal/conformance -run TestGoldenTrees -update

# Host-performance microbenchmarks (the measured, compared numbers are
# `go run ./benchmark`; see benchmark/README.md).
bench:
	$(GO) test -bench=. -benchmem ./...

# Quick bench smoke for CI: compile and run every benchmark once.
bench-smoke:
	$(GO) test -bench=. -benchtime=1x ./...

# The "ten alternating pairs" rule for a host-time claim on one workload
# of the repo benchmark: build ./benchmark from a clean checkout of BASE
# and from the working tree, run `-mode e2e -workload W` N times on each
# side, alternating which side goes first, and print both wall_ms
# series with their medians and quartiles, the failed operations, the
# pairs won, and the verdict: a gain counts when the change wins at
# least nine tenths of all pairs (a tie is a win for neither) and the
# medians lie further apart than the base's own quartiles.
#   make bench-pairs BASE=<rev> W=<workload> N=10
BASE ?= HEAD
W ?= coll_real
N ?= 10
bench-pairs:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src"; git archive $(BASE) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/base" ./benchmark); \
	$(GO) build -o "$$tmp/change" ./benchmark; \
	wall() { "$$tmp/$$1" -mode e2e -workload $(W) 2>/dev/null | awk '$$1 == "wall_ms" { w = $$2 } / operations failed/ { f = $$(NF - 4); t = $$(NF - 2) } END { print w, f, t }'; }; \
	i=1; while [ $$i -le $(N) ]; do \
		if [ $$((i % 2)) -eq 1 ]; then b=$$(wall base); c=$$(wall change); else c=$$(wall change); b=$$(wall base); fi; \
		echo "pair $$i: base $${b%% *} ms, change $${c%% *} ms"; \
		echo "$$b $$c" >> "$$tmp/pairs"; i=$$((i + 1)); \
	done; \
	awk -v w=$(W) -v base=$(BASE) ' \
		function quart(a, n, q,    h, k) { h = (n - 1) * q + 1; k = int(h); return k < n ? a[k] + (h - k) * (a[k + 1] - a[k]) : a[n] } \
		function sort(a, n,    i, j, t) { for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } } \
		{ bs = bs " " $$1; cs = cs " " $$4; b[NR] = $$1; c[NR] = $$4; bfail += $$2; bops += $$3; cfail += $$5; cops += $$6; if ($$4 < $$1) won++; if ($$4 > $$1) lost++ } \
		END { sort(b, NR); sort(c, NR); bm = quart(b, NR, .5); cm = quart(c, NR, .5); iqr = quart(b, NR, .75) - quart(b, NR, .25); \
			printf "%s wall_ms, base %s:%s\n%s wall_ms, change:%s\n", w, base, bs, w, cs; \
			printf "base:   median %.1f, quartiles %.1f / %.1f, minimum %.1f, %d of %d operations failed\n", bm, quart(b, NR, .25), quart(b, NR, .75), b[1], bfail, bops; \
			printf "change: median %.1f, quartiles %.1f / %.1f, minimum %.1f, %d of %d operations failed\n", cm, quart(c, NR, .25), quart(c, NR, .75), c[1], cfail, cops; \
			printf "change won %d of %d pairs, lost %d; medians %+.1f %% (%.1f ms apart, base inter-quartile distance %.1f ms)\n", won, NR, lost, 100 * (cm - bm) / bm, bm - cm, iqr; \
			gain = 10 * won >= 9 * NR && bm - cm > iqr && cfail * bops <= bfail * cops; \
			printf "verdict: %s\n", gain ? "gain" : (10 * lost >= 9 * NR && cm - bm > iqr ? "regression" : "no resolved difference") }' "$$tmp/pairs"

# Regenerate every paper figure (writes to stdout; ~3 minutes).
figures:
	$(GO) run ./cmd/ddtbench

# Run every example end to end (each verifies its own bytes).
examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/stencil2d
	$(GO) run ./examples/particles
	$(GO) run ./examples/transpose
	$(GO) run ./examples/fftreshape
	$(GO) run ./examples/dtranspose
	$(GO) run ./examples/onesided

tools:
	$(GO) build -o bin/ddtbench ./cmd/ddtbench
	$(GO) build -o bin/pingpong ./cmd/pingpong
	$(GO) build -o bin/kernels ./cmd/kernels
	$(GO) build -o bin/topo ./cmd/topo

clean:
	rm -rf bin
