# Mirrors .github/workflows/ci.yml: its ci job runs the steps of
# `make lint build test fuzz-smoke bench`, and its campaign-smoke and
# chaos-smoke jobs run the targets of those names (plus daemon-smoke).
GO ?= go

# Hot-path microbenchmarks tracked by the perf trajectory (bench-json)
# and the CI benchstat delta; ci.yml consumes them via the bench-micro
# and bench-json targets, so this regex is the single source of truth.
MICRO_BENCH = BenchmarkSchedulerChurn|BenchmarkSchedulerBurst|BenchmarkTimerChurn|BenchmarkSchedulerFanOut|BenchmarkChannelTransmit|BenchmarkLinkRowLookup|BenchmarkRadioArrivals|BenchmarkEnergyAccounting|BenchmarkHistoryObserve
BENCH_DATE ?= $(shell date +%Y-%m-%d)

.PHONY: all build test fuzz-smoke bench bench-micro bench-json lint lint-golangci campaign-smoke daemon-smoke chaos-smoke fmt

all: lint build test

build:
	$(GO) build ./...

test:
	$(GO) test -race -timeout 30m ./...
	$(GO) -C bench test .

# fuzz-smoke is CI's fuzz step: short runs of the calendar-vs-heap
# queue fuzzer, the span-runs-vs-single-events fuzzer, the
# idtab-vs-map table fuzzer, the strict config decoder fuzzer, the
# campaign spec decoder fuzzer and the checkpoint resume fuzzer on top
# of their seed corpora. A fuzzer added here runs in CI too.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzQueueMatchesHeap -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzSpansMatchSingleEvents -fuzztime 15s ./internal/sim
	$(GO) test -run '^$$' -fuzz FuzzTableMatchesMap -fuzztime 15s ./internal/idtab
	$(GO) test -run '^$$' -fuzz FuzzDecodeStrict -fuzztime 15s ./internal/scenario
	$(GO) test -run '^$$' -fuzz FuzzParseCampaignFile -fuzztime 15s ./internal/runner
	$(GO) test -run '^$$' -fuzz FuzzResumeCheckpoint -fuzztime 15s ./internal/runner

bench:
	$(GO) test -bench=. -benchtime=1x -run='^$$' -timeout 30m ./...

# bench-micro runs the inner-loop benchmarks with allocation tracking at
# a statistically useful iteration count (unlike the 1x smoke pass).
bench-micro:
	$(GO) test -run='^$$' -bench='$(MICRO_BENCH)' -benchmem ./internal/sim/ ./internal/phys/ ./internal/energy/ ./internal/power/ ./internal/scenario/

# bench-json snapshots the perf trajectory: micro benchmarks (real
# iteration counts, -benchmem) plus the figure benchmarks (one full
# simulation each, with their J/kbps/pdr metrics), serialised to
# BENCH_<date>.json. CI uploads the file as an artifact; comparing dated
# files across commits is the regression record.
bench-json:
	@tmp=$$(mktemp); \
	{ $(GO) test -run='^$$' -bench='$(MICRO_BENCH)' -benchmem ./internal/sim/ ./internal/phys/ ./internal/energy/ ./internal/power/ ./internal/scenario/ && \
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

# campaign-smoke is CI's end-to-end campaign job (its campaign-smoke
# job runs this target, then daemon-smoke). Every check fails the
# target: the bursty preset dry-runs non-empty, runs a tiny grid to 8
# records and resumes from its own checkpoint leaving the file
# byte-identical; the reqresp preset does the same with 4 records,
# driving the response leg end to end; the clustered preset writes a non-empty file; the
# scale preset expands to 384 runs and pushes a real 500-node grid
# (2 records) through the spatial index; the scale and ablation-ctrl
# presets, emitted as specs and read back, dry-run byte-identically to
# the presets themselves; a spec whose base sets rts_threshold_bytes
# 256 and whose variant patch sets 512 emits both values and, read
# back, dry-runs byte-identically to the given spec; the lifetime preset writes 4 records, each
# with consumed energy above radiated energy and a non-empty alive
# timeline; -timing records carry wall_ms and peak_queue above
# zero, while untimed records carry neither field; cmd/ranges prints
# the 250.0 m decoding and 550.0 m carrier-sensing zones; and
# cmd/topo draws the Figure 1 topology without error. Needs jq.
campaign-smoke:
	@set -e; tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/campaign ./cmd/campaign; c=$$tmp/campaign; \
	lines() { n=$$(wc -l < $$1); test "$$n" -eq $$2 || { echo "campaign-smoke: $$1 has $$n lines, want $$2" >&2; exit 1; }; }; \
	none() { bad=$$(jq -c "select($$1)" $$2) || { echo "campaign-smoke: jq could not read $$2" >&2; exit 1; }; \
	  test -z "$$bad" || { echo "campaign-smoke: $$3:" >&2; echo "$$bad" >&2; exit 1; }; }; \
	$$c -preset bursty -dry-run > $$tmp/dry.txt; test -s $$tmp/dry.txt; \
	$$c -preset scale -dry-run > $$tmp/scale-dry.txt; \
	lines $$tmp/scale-dry.txt 384; \
	for p in scale ablation-ctrl; do \
	  $$c -preset $$p -emit-spec > $$tmp/$$p.json; \
	  $$c -preset $$p -dry-run > $$tmp/$$p.preset 2>&1; \
	  $$c -spec $$tmp/$$p.json -dry-run > $$tmp/$$p.spec 2>&1; \
	  cmp $$tmp/$$p.preset $$tmp/$$p.spec; \
	done; \
	printf '%s\n' '{"version": 1, "name": "rts", "base": {"scheme": "basic802.11", "duration_s": 20, "rts_threshold_bytes": 256},' \
	  '"variants": [{"name": "rts256", "patch": {}}, {"name": "rts512", "patch": {"rts_threshold_bytes": 512}}], "loads_kbps": [250], "reps": 1}' > $$tmp/rts.json; \
	$$c -spec $$tmp/rts.json -emit-spec > $$tmp/rts-emit.json; \
	jq -e '.base.rts_threshold_bytes == 256 and [.variants[].patch.rts_threshold_bytes] == [null, 512]' $$tmp/rts-emit.json > /dev/null || \
	  { echo "campaign-smoke: -emit-spec lost an rts_threshold_bytes:" >&2; cat $$tmp/rts-emit.json >&2; exit 1; }; \
	$$c -spec $$tmp/rts.json -dry-run > $$tmp/rts.given; \
	$$c -spec $$tmp/rts-emit.json -dry-run > $$tmp/rts.emitted; \
	cmp $$tmp/rts.given $$tmp/rts.emitted; \
	resumes() { $$c $$1 -out $$2 -q > /dev/null; lines $$2 $$3; cp $$2 $$2.orig; \
	  $$c $$1 -out $$2 -resume -q > /dev/null; cmp $$2.orig $$2; }; \
	bursty="-preset bursty -duration 4 -seeds 1 -loads 250"; \
	resumes "$$bursty" $$tmp/smoke.jsonl 8; \
	resumes "-preset reqresp -duration 4 -seeds 1 -loads 250" $$tmp/reqresp.jsonl 4; \
	$$c -preset clustered -topology clusters,corridor -duration 4 -seeds 1 -loads 250 -out $$tmp/clustered.jsonl -q > /dev/null; \
	test -s $$tmp/clustered.jsonl; \
	$$c -preset scale -variants n=500 -topology grid -duration 4 -seeds 1 -loads 250 -out $$tmp/scale.jsonl -q > /dev/null; \
	lines $$tmp/scale.jsonl 2; \
	$$c -preset lifetime -duration 4 -seeds 1 -loads 250 -out $$tmp/life.jsonl -q > /dev/null; \
	lines $$tmp/life.jsonl 4; \
	none '(.consumed_energy_j <= .energy_j) or (((.alive_timeline // []) | length) == 0)' $$tmp/life.jsonl \
	  "lifetime records violating the energy invariants"; \
	$$c $$bursty -timing -out $$tmp/timing.jsonl -q > /dev/null; \
	none '(.wall_ms // 0) <= 0 or (.peak_queue // 0) <= 0' $$tmp/timing.jsonl \
	  "-timing records missing timing fields"; \
	none 'has("wall_ms") or has("peak_queue")' $$tmp/smoke.jsonl \
	  "untimed records carrying timing fields"; \
	$(GO) run ./cmd/ranges > $$tmp/ranges.txt; \
	grep -q '^  decoding zone  *250\.0 m$$' $$tmp/ranges.txt && grep -q '^  carrier-sensing zone  *550\.0 m$$' $$tmp/ranges.txt || \
	  { echo "campaign-smoke: cmd/ranges zone radii are not 250.0 m / 550.0 m:" >&2; cat $$tmp/ranges.txt >&2; exit 1; }; \
	$(GO) run ./cmd/topo -fig 1 > /dev/null; \
	echo "campaign-smoke: ok"

# daemon-smoke is the second half of CI's campaign-smoke job: boot
# campaignd on a fresh state dir, submit the bursty preset's spec over
# HTTP, wait for completion, and require the served JSONL byte-identical
# to cmd/campaign's output for the same spec; the SSE replay carries 8
# result events and a done frame; /metrics has the completed-run
# counter's TYPE line, a counter equal to the record count, the
# campaign's campaign_done_runs gauge at 8 and campaignd_build_info.
# A second daemon started with -pprof serves a non-empty CPU profile.
# Needs curl and jq.
daemon-smoke:
	@set -e; \
	tmp=$$(mktemp -d); pid=""; \
	trap 'test -n "$$pid" && kill $$pid 2>/dev/null; rm -rf $$tmp' EXIT; \
	healthy() { for i in $$(seq 100); do curl -sf http://127.0.0.1:$$1/healthz > /dev/null && return; sleep 0.1; done; }; \
	$(GO) run ./cmd/campaign -preset bursty -duration 4 -seeds 1 -loads 250 -emit-spec > $$tmp/spec.json; \
	$(GO) run ./cmd/campaign -spec $$tmp/spec.json -out $$tmp/cli.jsonl -q > /dev/null; \
	$(GO) build -o $$tmp/campaignd ./cmd/campaignd; \
	$$tmp/campaignd -addr 127.0.0.1:8941 -dir $$tmp/state 2> /dev/null & pid=$$!; \
	healthy 8941; \
	id=$$(curl -sf -d @$$tmp/spec.json http://127.0.0.1:8941/campaigns | jq -r .id); \
	test -n "$$id"; \
	state=""; \
	for i in $$(seq 600); do \
	  state=$$(curl -sf http://127.0.0.1:8941/campaigns/$$id | jq -r .state); \
	  test "$$state" = done && break; sleep 0.1; \
	done; \
	test "$$state" = done; \
	curl -sf http://127.0.0.1:8941/campaigns/$$id/results.jsonl > $$tmp/served.jsonl; \
	cmp $$tmp/cli.jsonl $$tmp/served.jsonl; \
	curl -sf http://127.0.0.1:8941/campaigns/$$id/events > $$tmp/events.txt; \
	results=$$(grep -c '^event: result$$' $$tmp/events.txt); \
	test "$$results" -eq 8; \
	grep -q '^event: done$$' $$tmp/events.txt; \
	curl -sf http://127.0.0.1:8941/metrics > $$tmp/metrics.txt; \
	grep -q '^# TYPE campaign_runs_completed_total counter$$' $$tmp/metrics.txt; \
	completed=$$(awk '$$1 == "campaign_runs_completed_total" {print int($$2)}' $$tmp/metrics.txt); \
	records=$$(wc -l < $$tmp/served.jsonl); \
	test "$$completed" -eq "$$records"; \
	grep -q "^campaign_done_runs{campaign=\"$$id\"} 8$$" $$tmp/metrics.txt; \
	grep -q '^campaignd_build_info{' $$tmp/metrics.txt; \
	kill $$pid; \
	$$tmp/campaignd -addr 127.0.0.1:8942 -dir $$tmp/pprof-state -pprof 2> /dev/null & pid=$$!; \
	healthy 8942; \
	curl -sf 'http://127.0.0.1:8942/debug/pprof/profile?seconds=1' > $$tmp/profile.pb; \
	test -s $$tmp/profile.pb; \
	echo "daemon-smoke: ok ($$records records served byte-identical; $$results SSE results; completed_total=$$completed; pprof profile served)"

# chaos-smoke mirrors CI's chaos-smoke job: SIGKILL campaignd at least
# three times mid-campaign, resume on the same state dir, and require
# the served JSONL byte-identical to cmd/campaign's reference output.
chaos-smoke:
	@GO="$(GO)" sh scripts/chaos_smoke.sh

fmt:
	gofmt -w .
