# Mirrors .github/workflows/ci.yml exactly: `make lint build test bench`
# is what CI runs.
GO ?= go

# Hot-path microbenchmarks tracked by the perf trajectory (bench-json)
# and the CI benchstat delta; ci.yml consumes them via the bench-micro
# and bench-json targets, so this regex is the single source of truth.
MICRO_BENCH = BenchmarkSchedulerChurn|BenchmarkSchedulerBurst|BenchmarkTimerChurn|BenchmarkSchedulerFanOut|BenchmarkChannelTransmit|BenchmarkLinkRowLookup|BenchmarkRadioArrivals|BenchmarkEnergyAccounting
BENCH_DATE ?= $(shell date +%Y-%m-%d)

.PHONY: all build test fuzz-smoke bench bench-micro bench-json lint lint-golangci campaign-smoke daemon-smoke chaos-smoke fmt

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race -timeout 30m ./...
	$(GO) -C bench test .

# fuzz-smoke mirrors CI's fuzz steps: short runs of the calendar-vs-heap
# queue fuzzer and the strict config/spec decoder fuzzer on top of their
# seed corpora.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzQueueMatchesHeap -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzDecodeStrict -fuzztime 15s ./internal/scenario

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' -timeout 30m ./...

# bench-micro runs the inner-loop benchmarks with allocation tracking at
# a statistically useful iteration count (unlike the 1x smoke pass).
bench-micro:
	$(GO) test -run='^$$' -bench='$(MICRO_BENCH)' -benchmem ./internal/sim/ ./internal/phys/ ./internal/energy/ ./internal/scenario/

# bench-json snapshots the perf trajectory: micro benchmarks (real
# iteration counts, -benchmem) plus the figure benchmarks (one full
# simulation each, with their J/kbps/pdr metrics), serialised to
# BENCH_<date>.json. CI uploads the file as an artifact; comparing dated
# files across commits is the regression record.
bench-json:
	@tmp=$$(mktemp); \
	{ $(GO) test -run='^$$' -bench='$(MICRO_BENCH)' -benchmem ./internal/sim/ ./internal/phys/ ./internal/energy/ ./internal/scenario/ && \
	  $(GO) test -run='^$$' -bench=. -benchtime=1x -timeout 30m . ; } > $$tmp || \
	  { cat $$tmp; rm -f $$tmp; echo "bench-json: benchmark run failed" >&2; exit 1; }; \
	$(GO) run ./cmd/benchjson -date $(BENCH_DATE) -out BENCH_$(BENCH_DATE).json < $$tmp; \
	rc=$$?; rm -f $$tmp; exit $$rc

lint:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi
	$(GO) vet ./...

# lint-golangci mirrors CI's golangci-lint job (.golangci.yml). The
# binary is not vendored; install it or let CI run it.
lint-golangci:
	golangci-lint run

# campaign-smoke mirrors CI's end-to-end campaign job: the bursty
# preset must dry-run, execute a tiny grid to non-empty JSONL and
# resume cleanly from its own checkpoint; the scale preset must expand
# and push a real 500-node run through the spatial index.
campaign-smoke:
	@$(GO) run ./cmd/campaign -preset bursty -dry-run > /dev/null
	@$(GO) run ./cmd/campaign -preset scale -dry-run > /dev/null
	@tmp=$$(mktemp); \
	$(GO) run ./cmd/campaign -preset bursty -duration 4 -seeds 1 -loads 250 -out $$tmp -q && \
	test -s $$tmp && \
	$(GO) run ./cmd/campaign -preset bursty -duration 4 -seeds 1 -loads 250 -out $$tmp -resume -q > /dev/null && \
	$(GO) run ./cmd/campaign -preset lifetime -duration 4 -seeds 1 -loads 250 -out $$tmp.life -q > /dev/null && \
	$(GO) run ./cmd/campaign -preset scale -variants n=500 -topology grid -duration 4 -seeds 1 -loads 250 -out $$tmp.scale -q > /dev/null && \
	echo "campaign-smoke: ok ($$(wc -l < $$tmp) records, $$(wc -l < $$tmp.life) lifetime, $$(wc -l < $$tmp.scale) scale)"; \
	rc=$$?; rm -f $$tmp $$tmp.life $$tmp.scale; exit $$rc

# daemon-smoke mirrors CI's campaign-daemon step: boot campaignd on a
# fresh state dir, submit the bursty preset's spec over HTTP, wait for
# completion, require the served JSONL byte-identical to cmd/campaign's
# output for the same spec, and assert the /metrics completed-run
# counter matches the record count.
daemon-smoke:
	@set -e; \
	tmp=$$(mktemp -d); pid=""; \
	trap 'test -n "$$pid" && kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	$(GO) run ./cmd/campaign -preset bursty -duration 4 -seeds 1 -loads 250 -emit-spec > $$tmp/spec.json; \
	$(GO) run ./cmd/campaign -spec $$tmp/spec.json -out $$tmp/cli.jsonl -q > /dev/null; \
	$(GO) build -o $$tmp/campaignd ./cmd/campaignd; \
	$$tmp/campaignd -addr 127.0.0.1:8941 -dir $$tmp/state 2> /dev/null & pid=$$!; \
	for i in $$(seq 100); do curl -sf http://127.0.0.1:8941/healthz > /dev/null && break; sleep 0.1; done; \
	id=$$(curl -sf -d @$$tmp/spec.json http://127.0.0.1:8941/campaigns | sed 's/.*"id":"\([^"]*\)".*/\1/'); \
	test -n "$$id"; \
	state=""; \
	for i in $$(seq 600); do \
	  state=$$(curl -sf http://127.0.0.1:8941/campaigns/$$id | sed 's/.*"state":"\([^"]*\)".*/\1/'); \
	  test "$$state" = done && break; sleep 0.1; \
	done; \
	test "$$state" = done; \
	curl -sf http://127.0.0.1:8941/campaigns/$$id/results.jsonl > $$tmp/served.jsonl; \
	cmp $$tmp/cli.jsonl $$tmp/served.jsonl; \
	completed=$$(curl -sf http://127.0.0.1:8941/metrics | awk '$$1 == "campaign_runs_completed_total" {print int($$2)}'); \
	records=$$(wc -l < $$tmp/served.jsonl); \
	test "$$completed" -eq "$$records"; \
	echo "daemon-smoke: ok ($$records records served byte-identical; completed_total=$$completed)"

# chaos-smoke mirrors CI's chaos-smoke job: SIGKILL campaignd at least
# three times mid-campaign, resume on the same state dir, and require
# the served JSONL byte-identical to cmd/campaign's reference output.
chaos-smoke:
	@GO="$(GO)" sh scripts/chaos_smoke.sh

fmt:
	gofmt -w .
