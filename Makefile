# SieveStore reproduction — common developer targets.

GO ?= go

.PHONY: all build test race test-chaos test-tenant cover loc bench bench-verify bench-e2e ab experiments experiments-quick fuzz test-fuzz fmt vet lint clean

# Tier-1 flow: compile, static checks, unit tests, the race detector over
# every package (the concurrent store/appliance paths must stay
# race-clean), then the multi-tenant QoS suite, and the benchmark
# module's own vet and tests (which smoke-run every workload).
all: build vet lint test race test-tenant bench-verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Fault-injection chaos run under the race detector: concurrent I/O and
# epoch rotations, the store straight over a backend that fails, hangs and
# spikes, plus spill faults — asserting that no read is older than a write
# acknowledged before it began, no deadlock, and clean recovery once the
# faults clear.
test-chaos:
	$(GO) test -race -count=1 -v -run 'TestChaos' ./internal/core/

# Multi-tenant QoS suite under the race detector: the adversarial
# noisy-neighbor scenario (quotas keep a stable tenant within 2% of its
# solo hit ratio while a churner degrades the unguarded run ≥5%), the
# tracking-only no-repartition check, the accounting no-double-count
# fence, and the quota-repartition stress run (both cadences) across
# rotations/flushes/snapshots.
test-tenant:
	$(GO) test -race -count=1 -run 'TestTenant' ./internal/core/
	$(GO) test -race -count=1 ./internal/tenant/

# Deeper static analysis, skipped gracefully where the tools aren't
# installed (this container has neither; no network installs). When
# staticcheck/govulncheck are on PATH they become part of tier-1 via
# `all`.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
	else echo "lint: staticcheck not installed, skipping"; fi
	@if command -v govulncheck >/dev/null 2>&1; then govulncheck ./...; \
	else echo "lint: govulncheck not installed, skipping"; fi

# Coverage floors for the observability-critical packages: the metrics
# primitives feed operator-facing numbers, the appliance parses
# untrusted network input, the cache package is the slot table every
# variant caches through, the sieve decides what every variant
# admits, the simulator produces every paper figure and internal/ssd
# computes every Fig. 8/9 input from its minute-load series — all must
# stay thoroughly tested. Other packages report
# coverage without a floor.
COVER_FLOOR_metrics    := 90
COVER_FLOOR_appliance  := 90
COVER_FLOOR_cache      := 90
COVER_FLOOR_tenant     := 95
COVER_FLOOR_sieve      := 90
COVER_FLOOR_sim        := 90
COVER_FLOOR_ssd        := 95

cover:
	@out=$$($(GO) test -cover ./internal/...); echo "$$out"; fail=0; \
	for spec in metrics:$(COVER_FLOOR_metrics) appliance:$(COVER_FLOOR_appliance) cache:$(COVER_FLOOR_cache) tenant:$(COVER_FLOOR_tenant) sieve:$(COVER_FLOOR_sieve) sim:$(COVER_FLOOR_sim) ssd:$(COVER_FLOOR_ssd); do \
	  pkg=$${spec%%:*}; floor=$${spec##*:}; \
	  pct=$$(echo "$$out" | awk -v p="repro/internal/$$pkg" \
	    '$$2==p { for (i=1; i<=NF; i++) if ($$i ~ /%$$/) { gsub(/%/, "", $$i); print $$i } }'); \
	  if [ -z "$$pct" ]; then echo "cover: FAIL no coverage reported for internal/$$pkg"; fail=1; \
	  elif awk -v a="$$pct" -v b="$$floor" 'BEGIN { exit !(a < b) }'; then \
	    echo "cover: FAIL internal/$$pkg at $$pct% (floor $$floor%)"; fail=1; \
	  else echo "cover: internal/$$pkg $$pct% >= $$floor%"; fi; \
	done; exit $$fail

# Non-test Go lines per package and repo-wide, outside bench/ (a module of
# its own that changes only in benchmark issues): the number ROADMAP's
# "non-test lines of the packages touched do not grow" rule is about.
loc:
	@for d in $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec dirname {} \; | sort -u); do \
	  printf '%7d %s\n' $$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' | xargs cat | wc -l) $$d; \
	done; \
	printf '%7d total outside bench/\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' | xargs cat | wc -l)

# One benchmark per paper table/figure, plus trace generation and one
# simulated day.
bench:
	$(GO) test -bench=. -benchmem .

# bench/ is a module of its own that the root module never builds, so a
# core or cache API change that breaks what the benchmark compiles against
# would otherwise show only when the benchmark next runs. Its tests include
# a -smoke run of every workload (~10 s).
bench-verify:
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

# The repository's benchmark (bench/README.md, BENCHMARK.json): every
# workload, end-to-end metrics. The headline numbers come from here.
bench-e2e:
	$(GO) run -C bench . -workload all

# Parent-vs-change on one benchmark workload, the way every speed claim in
# CHANGES.md is measured: `make ab PARENT=<rev> WORKLOAD=lib_trace PAIRS=10`
# builds bench/ from a checkout of PARENT and from the working tree, runs
# alternating same-seed pairs and prints per-pair ratios, medians, quartiles,
# wins and a faster/slower/unresolved/identical verdict for every end-to-end
# metric (see ab.sh; SECONDS sizes the stream; WORKLOAD=all runs all four).
PAIRS ?= 10
SECONDS ?= 15
ab:
	./ab.sh $(PARENT) $(WORKLOAD) $(PAIRS) $(SECONDS)

# Full evaluation at the default reproduction scale (minutes).
experiments:
	$(GO) run ./cmd/experiments | tee experiments_output.txt

# Quick evaluation pass.
experiments-quick:
	$(GO) run ./cmd/experiments -scale 4096 -skip-sweeps

# Every fuzz target, as directory:function. `make fuzz` soaks each for 30 s;
# `make test-fuzz` runs each on its seed corpus plus 5 s of new inputs, cheap
# enough for pre-commit. TestFuzzTargetsListed (reach_test.go) fails when a
# Fuzz function under internal/ or cmd/ is missing here.
FUZZ_TARGETS := \
	internal/trace:FuzzBinaryReader \
	internal/trace:FuzzCSVReader \
	internal/trace:FuzzSortByTimeMatchesStable \
	internal/core:FuzzLoadSnapshot \
	internal/appliance:FuzzFrameRoundTrip \
	internal/appliance:FuzzFrameRoundTripV2 \
	internal/appliance:FuzzServerInput \
	internal/appliance:FuzzClientResponse \
	internal/tenant:FuzzTenantAccounting \
	internal/sieve:FuzzSieveMatchesReference \
	internal/sieve:FuzzPageIndexMatchesModel \
	internal/cache:FuzzHitRunMatchesHits

fuzz: FUZZTIME = 30s
test-fuzz: FUZZTIME = 5s
fuzz test-fuzz:
	@for t in $(FUZZ_TARGETS); do \
	  echo "$(GO) test ./$${t%%:*}/ -fuzz '^$${t##*:}$$' -fuzztime $(FUZZTIME) -run XXX"; \
	  $(GO) test ./$${t%%:*}/ -fuzz "^$${t##*:}\$$" -fuzztime $(FUZZTIME) -run XXX || exit 1; \
	done

fmt:
	gofmt -w .

vet:
	$(GO) vet ./...

clean:
	$(GO) clean ./...
