# gpuddt — build/test/benchmark entry points (stdlib-only Go, no deps)

GO ?= go

.PHONY: all check-fast check-full fuzz golden bench bench-smoke bench-pairs bench-compare ddt-pairs figures examples tools lines census clean

all: check-fast

# Any file gofmt would rewrite fails the gate.
GOFMT_GATE = @out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l lists:"; echo "$$out"; exit 1; fi

# Every package under internal/ except the test oracle (conformance)
# must be reached from a command, the benchmark or an example: a package
# nothing runs fails the gate.
ORPHAN_GATE = @deps=$$($(GO) list -deps ./cmd/... ./benchmark ./examples/...); \
	orphans=$$(for p in $$($(GO) list ./internal/...); do \
		case "$$p" in */internal/conformance) continue ;; esac; \
		echo "$$deps" | grep -qx "$$p" || echo "$$p"; \
	done); \
	if [ -n "$$orphans" ]; then echo "packages no command, benchmark or example imports:"; echo "$$orphans"; exit 1; fi

# Every fuzz target in the module, one "package target" pair a line,
# listed by `go test -list` so a new target is smoked and fuzzed without
# being named here. A package that fails to build fails the listing.
FUZZ_TARGETS = list=$$($(GO) test -list '^Fuzz' ./...); \
	echo "$$list" | awk '/^Fuzz/ { f[n++] = $$1 } /^ok/ { for (i = 0; i < n; i++) print $$2, f[i]; n = 0 }'

# Tier 1 plus formatting and vet: the gate to run before every commit.
check-fast:
	$(GOFMT_GATE)
	$(ORPHAN_GATE)
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...

# The CI gate. Every test runs once, under -race: the differential
# oracle, channel round-trips, golden figures and traces, chaos, scale,
# model suites, the defaults-against-the-grid check, cmd smoke tests and
# example builds. On top of that, only what `go test -race ./...` cannot
# do: the exact allocation pins, which skip under -race (sync.Pool drops
# there), once without it; the 16384-rank smoke (skipped without
# GPUDDT_MEGA), a 10 s smoke of each fuzz target, and the three report
# sweeps run twice (chaosbench has one size, the others run -quick) —
# each pair of JSON reports must be byte-identical (a sweep is a pure
# function of its inputs). Last, the census: no function under internal/
# that no production entry point runs, unless CENSUS.txt lists it.
# The race step fits an 8 GB host: the race detector's shadow memory
# costs several bytes per heap byte and is never handed back, so one
# test binary runs at a time (-p 1) and each collects its garbage before
# its heap passes 1 GiB (GOMEMLIMIT); under -race the slab pool keeps
# 256 MiB (internal/mem/budget_race.go), and TestParallelMatchesSerial
# shrinks.
ALLOC_PINS = TestMessageAllocs|TestWorldBuildCost|TestStagingAllocatesNothing|TestSwitchReduceAllocatesNoPayload|TestChannelIsDerived|TestWholeMessageCallsBorrowTheirWorker|TestHostCallsAllocateNothing|TestServerAllocatesNothing|TestFirstPackAllocatesItsListOnly|TestTransposeListIsRuns|TestCanonicalBuildCost
check-full:
	$(GOFMT_GATE)
	$(ORPHAN_GATE)
	$(GO) build ./...
	$(GO) vet ./...
	GOMEMLIMIT=1GiB $(GO) test -race -p 1 ./...
	$(GO) test -count=1 -run '^($(ALLOC_PINS))$$' ./internal/mpi ./internal/core ./internal/sim ./internal/workload
	GPUDDT_MEGA=1 $(GO) test ./internal/bench -run TestMegaSmoke16k -v
	@set -e; targets=$$($(FUZZ_TARGETS)); \
	echo "$$targets" | while read pkg f; do \
		echo "fuzz smoke: $$pkg $$f"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$f\$$" -fuzztime 10s; \
	done
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	for b in "scalebench -quick" "appbench -quick" chaosbench; do \
		echo "determinism re-run: $$b"; \
		$(GO) run ./cmd/$$b -out "$$tmp/a.json"; \
		$(GO) run ./cmd/$$b -out "$$tmp/b.json"; \
		cmp "$$tmp/a.json" "$$tmp/b.json"; \
	done
	@$(MAKE) --no-print-directory census

# Longer fuzzing session: two minutes on every fuzz target.
fuzz:
	@set -e; targets=$$($(FUZZ_TARGETS)); \
	echo "$$targets" | while read pkg f; do \
		echo "fuzz: $$pkg $$f"; \
		$(GO) test $$pkg -run '^$$' -fuzz "^$$f\$$" -fuzztime 2m; \
	done

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

# The "ten alternating pairs" rule for a claim on one end-to-end metric
# M (lower is better: wall_ms, setup_s, allocs_per_op, alloc_mb_per_op)
# of one workload of the repo benchmark: build ./benchmark from a clean
# checkout of BASE and from the working tree, run `-mode e2e -workload
# W` N times on each side, alternating which side goes first, and print
# both series of M with their medians and quartiles, the failed
# operations, the pairs won, and the verdict: a gain counts when the
# change wins at least nine tenths of all pairs (a tie is a win for
# neither) and the medians lie further apart than the base's own
# quartiles.
#   make bench-pairs BASE=<rev> W=<workload> [M=<metric>] N=10
BASE ?= HEAD
# awk functions both pairs targets share: sort(a, n) sorts a[1..n] in
# place, quart(a, n, q) is the q-quantile of the sorted a[1..n].
AWK_QUARTILES = function quart(a, n, q,    h, k) { h = (n - 1) * q + 1; k = int(h); return k < n ? a[k] + (h - k) * (a[k + 1] - a[k]) : a[n] } \
	function sort(a, n,    i, j, t) { for (i = 2; i <= n; i++) { t = a[i]; for (j = i - 1; j >= 1 && a[j] > t; j--) a[j + 1] = a[j]; a[j + 1] = t } }
W ?= coll_real
M ?= wall_ms
N ?= 10
bench-pairs:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src"; git archive $(BASE) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/base" ./benchmark); \
	$(GO) build -o "$$tmp/change" ./benchmark; \
	wall() { "$$tmp/$$1" -mode e2e -workload $(W) 2>/dev/null | awk '$$1 == "$(M)" { w = $$2 } / operations failed/ { f = $$(NF - 4); t = $$(NF - 2) } END { print w, f, t }'; }; \
	i=1; while [ $$i -le $(N) ]; do \
		if [ $$((i % 2)) -eq 1 ]; then b=$$(wall base); c=$$(wall change); else c=$$(wall change); b=$$(wall base); fi; \
		echo "pair $$i: base $${b%% *}, change $${c%% *}"; \
		echo "$$b $$c" >> "$$tmp/pairs"; i=$$((i + 1)); \
	done; \
	awk -v w=$(W) -v m=$(M) -v base=$(BASE) ' \
		$(AWK_QUARTILES) \
		{ bs = bs " " $$1; cs = cs " " $$4; b[NR] = $$1; c[NR] = $$4; bfail += $$2; bops += $$3; cfail += $$5; cops += $$6; if ($$4 < $$1) won++; if ($$4 > $$1) lost++ } \
		END { sort(b, NR); sort(c, NR); bm = quart(b, NR, .5); cm = quart(c, NR, .5); iqr = quart(b, NR, .75) - quart(b, NR, .25); \
			printf "%s %s, base %s:%s\n%s %s, change:%s\n", w, m, base, bs, w, m, cs; \
			printf "base:   median %.1f, quartiles %.1f / %.1f, minimum %.1f, %d of %d operations failed\n", bm, quart(b, NR, .25), quart(b, NR, .75), b[1], bfail, bops; \
			printf "change: median %.1f, quartiles %.1f / %.1f, minimum %.1f, %d of %d operations failed\n", cm, quart(c, NR, .25), quart(c, NR, .75), c[1], cfail, cops; \
			printf "change won %d of %d pairs, lost %d; medians %+.1f %% (%.1f apart, base inter-quartile distance %.1f)\n", won, NR, lost, 100 * (cm - bm) / bm, bm - cm, iqr; \
			gain = 10 * won >= 9 * NR && bm - cm > iqr && cfail * bops <= bfail * cops; \
			printf "verdict: %s\n", gain ? "gain" : (10 * lost >= 9 * NR && cm - bm > iqr ? "regression" : "no resolved difference") }' "$$tmp/pairs"

# The "no end-to-end metric worse on any workload" rule as one command:
# build ./benchmark from a clean checkout of BASE and from the working
# tree, run `-mode e2e -seconds S` over all six workloads on each (base
# first; progress on stderr), and print `benchmark compare` of the two
# reports, which judges every end-to-end metric against its bound in
# BENCHMARK.json and exits 1 on any `worse` row (and on any change of
# virtual_us or fail_frac). About 2 x 6 x S seconds.
#   make bench-compare BASE=<rev> [S=<seconds>]
S ?= 12
bench-compare:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src"; git archive $(BASE) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/base" ./benchmark); \
	$(GO) build -o "$$tmp/change" ./benchmark; \
	"$$tmp/base" -mode e2e -seconds $(S) -out "$$tmp/base.json" > /dev/null; \
	"$$tmp/change" -mode e2e -seconds $(S) -out "$$tmp/change.json" > /dev/null; \
	echo "benchmark compare: A = $(BASE), B = working tree"; \
	"$$tmp/change" compare "$$tmp/base.json" "$$tmp/change.json"

# The interleaved protocol for host time measured outside the repo
# benchmark, on one ddtbench figure: build cmd/ddtbench from a clean
# checkout of BASE and from the working tree, run `-figure FIG` N times
# on each side, alternating which side goes first, and print both
# wall-time series (ms) with their medians and quartiles, then the
# total alloc_space of one -memprofile run per side. Exits 1 when the
# two sides' figure outputs differ (cmp).
#   make ddt-pairs BASE=<rev> FIG=<figure> N=<n>
FIG ?= fig12
ddt-pairs:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/src"; git archive $(BASE) | tar -x -C "$$tmp/src"; \
	(cd "$$tmp/src" && $(GO) build -o "$$tmp/base" ./cmd/ddtbench); \
	$(GO) build -o "$$tmp/change" ./cmd/ddtbench; \
	wall() { t0=$$(date +%s%N); "$$tmp/$$1" -figure $(FIG) > "$$tmp/$$1.out"; echo $$((($$(date +%s%N) - t0) / 1000000)); }; \
	i=1; while [ $$i -le $(N) ]; do \
		if [ $$((i % 2)) -eq 1 ]; then b=$$(wall base); c=$$(wall change); else c=$$(wall change); b=$$(wall base); fi; \
		echo "pair $$i: base $$b ms, change $$c ms"; \
		echo "$$b $$c" >> "$$tmp/pairs"; i=$$((i + 1)); \
	done; \
	awk -v fig=$(FIG) -v base=$(BASE) ' \
		$(AWK_QUARTILES) \
		{ bs = bs " " $$1; cs = cs " " $$2; b[NR] = $$1; c[NR] = $$2 } \
		END { sort(b, NR); sort(c, NR); \
			printf "%s wall ms, base %s:%s\n%s wall ms, change:%s\n", fig, base, bs, fig, cs; \
			printf "base:   median %.0f, quartiles %.0f / %.0f\n", quart(b, NR, .5), quart(b, NR, .25), quart(b, NR, .75); \
			printf "change: median %.0f, quartiles %.0f / %.0f\n", quart(c, NR, .5), quart(c, NR, .25), quart(c, NR, .75) }' "$$tmp/pairs"; \
	for s in base change; do \
		"$$tmp/$$s" -figure $(FIG) -memprofile "$$tmp/$$s.mem" > /dev/null; \
		echo "$$s alloc_space: $$($(GO) tool pprof -sample_index=alloc_space -top "$$tmp/$$s.mem" 2>/dev/null | awk '/ total$$/ { print $$(NF - 1) }')"; \
	done; \
	cmp "$$tmp/base.out" "$$tmp/change.out" && echo "$(FIG) output identical"

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
	$(GO) build -o bin/topo ./cmd/topo

# The non-test Go line count under internal/ and cmd/ (blank lines and
# comments included), the size figure each change reports.
lines:
	@find internal cmd -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l

# The coverage census, a gate on code no production entry point runs:
# build the benchmark, the six commands and the seven examples with
# counters over the whole module, run them as a user would (the
# benchmark's -child processes inherit GOCOVERDIR; ddtbench, scalebench,
# chaosbench and pingpong once more per flag that selects code), and list every
# function under internal/ but conformance that none of them executed,
# keyed "package Receiver.Name" (no line number, so moving a function
# does not matter). CENSUS.txt holds the same keys, each with its
# reason. The gate fails on a never-run function CENSUS.txt does not
# list, on a listed one that now runs (its line goes: the list only
# shrinks) and on a line with no reason. About two minutes; it removes
# its temp dir.
CENSUS_PINGPONG = "" "-impl mvapich" "-host" "-direct-unpack" "-topo ib" "-topo 1gpu" \
	"-type transpose -n 512" "-type triangular -n 512" "-type vec2contig -n 512" "-type contiguous -n 512" \
	"-phases -timeline -verbose -n 256" "-trace p.json -n 256 -blocks 4 -frag 65536"
census:
	@set -e; export LC_ALL=C; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	mkdir "$$tmp/bin" "$$tmp/cov"; \
	for d in benchmark cmd/* examples/*; do \
		$(GO) build -cover -coverpkg=./... -o "$$tmp/bin/$${d##*/}" ./$$d; \
	done; \
	run() { echo "census: $$*"; \
		(cd "$$tmp" && GOCOVERDIR="$$tmp/cov" "$$tmp/bin/$$@") > "$$tmp/log" 2>&1 || { cat "$$tmp/log"; exit 1; }; }; \
	run benchmark -mode all -seconds 1; \
	run ddtbench -quick; \
	run ddtbench -quick -figure overlap -trace d.json -parallel 2 -cpuprofile cpu.prof -memprofile mem.prof; \
	run ddtbench -quick -figure fig6 -csv -sizes 64,128; \
	run scalebench -quick; run scalebench -quick -host -shards 2 -sample 4; \
	run appbench -quick; run chaosbench; run chaosbench -frag 65536; run topo; \
	for e in examples/*; do run $${e##*/}; done; \
	for f in $(CENSUS_PINGPONG); do run pingpong $$f; done; \
	$(GO) tool covdata func -i "$$tmp/cov" | awk ' \
		$$1 ~ /\/internal\// && $$1 !~ /\/internal\/conformance\// && $$NF == "0.0%" { \
			f = $$1; sub(/^[^\/]*\//, "", f); sub(/\/[^\/]*$$/, "", f); \
			n = $$2; sub(/^\*/, "", n); gsub(/\[[^]]*\]/, "", n); print f, n } \
		$$1 == "total" { print $$NF > "/dev/stderr" }' 2> "$$tmp/total" | sort -u > "$$tmp/never"; \
	awk '!/^#/ && NF { if (NF < 3) { print "CENSUS.txt line without a reason: " $$0; bad = 1 } print $$1, $$2 > "/dev/stderr" } \
		END { exit bad }' CENSUS.txt 2> "$$tmp/keys"; \
	sort "$$tmp/keys" > "$$tmp/listed"; \
	if [ -n "$$(uniq -d "$$tmp/listed")" ]; then echo "CENSUS.txt lists a function twice:"; uniq -d "$$tmp/listed"; exit 1; fi; \
	comm -23 "$$tmp/never" "$$tmp/listed" > "$$tmp/unlisted"; \
	comm -13 "$$tmp/never" "$$tmp/listed" > "$$tmp/ran"; \
	echo "$$(wc -l < "$$tmp/never") functions under internal/ never run ($$(cat "$$tmp/total") of statements run):"; \
	sed 's/^/  /' "$$tmp/never"; \
	if [ -s "$$tmp/unlisted" ]; then echo "never run and not in CENSUS.txt (delete it, move it into a _test.go file, give it a caller, or list it with its reason):"; sed 's/^/  /' "$$tmp/unlisted"; fi; \
	if [ -s "$$tmp/ran" ]; then echo "in CENSUS.txt but run now, or gone (delete its line):"; sed 's/^/  /' "$$tmp/ran"; fi; \
	[ ! -s "$$tmp/unlisted" ] && [ ! -s "$$tmp/ran" ]

clean:
	rm -rf bin
