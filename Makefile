# Development targets. `make ci` is what a checkin must pass: vet, the
# full test suite under the race detector (the scrape client, portal,
# snapshot engine, query service and fleet are exercised concurrently,
# so -race is load-bearing here), the coverage floors read from that
# same run, the perf gates, the engine benchmarks in short mode and a
# short fuzz pass. Every soak below runs exactly once in `make ci`,
# inside `race`; the soak targets are shortcuts for running one drill
# alone and verbosely.

GO ?= go

.PHONY: all build test short race vet fmt-check soak serve-soak store-crash fleet-soak membership-soak heal-soak watch-soak ship-soak cover bench bench-short bench-gate fuzz-short loc ci

all: build

build:
	$(GO) build ./...

# -shuffle=on randomizes test order within each package: unit tests
# that only pass because an earlier test warmed shared state fail loud
# instead of landing.
test:
	$(GO) test -shuffle=on ./...

# Fast inner-loop run: skips the soak tests and the full funnel scrape.
short:
	$(GO) test -short -shuffle=on ./...

# The whole suite under the race detector, soaks included, writing the
# coverage profile `cover` reads.
race:
	$(GO) test -race -shuffle=on -coverprofile=cover-race.out ./...

vet:
	$(GO) vet ./...

# Formatting gate: fails listing any file gofmt would rewrite.
fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# The soak targets below each run one soak alone, verbosely, under the
# race detector. `make ci` runs every one of them once, in `race`.

# The §2.2 soak suite alone: full funnel against a ~20%-fault portal,
# plus interrupt/resume through the checkpoint journal.
soak:
	$(GO) test -race -run 'TestSoak' -v ./internal/scrape/

# Query-service soak: concurrent clients saturate the admission limit
# while the corpus file is corrupted + SIGHUP'd (reload refused, old
# generation keeps serving), repaired + SIGHUP'd (atomic swap), then
# SIGTERM'd — asserting zero dropped in-flight requests throughout.
serve-soak:
	$(GO) test -race -run 'TestServeSoak' -v ./internal/serve/

# Crash-consistency loop for the corpus store, under the race
# detector: every failpoint (fsync, pre-manifest, mid-rename, post-
# publish bit flips) across seeded kill-points, asserting recovery
# always serves exactly generation N or N−1 with verified checksums —
# never a hybrid, never silent corruption.
store-crash:
	$(GO) test -race -run 'TestCrashConsistency' -v ./internal/store/

# The three campaign soaks share one harness (internal/fleet
# soak_test.go): one fleet assembly, publisher, audited client load,
# Campaign fault loop and convergence wait; each drill is a spec and a
# fault palette over it.
#
# Replicated-fleet chaos soak (E21), under the race detector: three
# static replicas pulling generations from a publishing primary behind
# the failover front tier, while the campaign kills and restarts one
# replica at a time and every replica's wire corrupts segment downloads
# — asserting zero wrong-generation responses, an error surface of
# exactly {200, 503 + Retry-After}, and bounded staleness.
fleet-soak:
	$(GO) test -race -run 'TestFleetChaosSoak' -v ./internal/fleet/

# Self-healing membership chaos soak (E23), under the race detector: a
# fleet assembled entirely from self-registering (lease-holding)
# replicas, while a seeded multi-fault campaign composes kills,
# front/replica/primary partitions, a full primary outage, slow and
# hung replicas, clock skew on lease timestamps, silent heartbeat
# stalls, and corruption bursts — asserting the E21 response
# invariants plus ring re-convergence within one lease TTL of every
# heal and lease-lapse eviction of silently dead replicas.
membership-soak:
	$(GO) test -race -run 'TestMembershipChaosSoak' -v ./internal/fleet/

# Self-healing data-plane chaos soak (E24), under the race detector: a
# promote-enabled front over four equivalent lease-holding replicas
# (no fixed primary), while a seeded campaign composes permanent
# source kills, on-disk bit-flips under the scrubbers, partitions, and
# corruption bursts under saturating audited load — asserting a new
# source is fenced in within one promotion budget, every bit-flip is
# repaired in place from a peer without a restart, dead branches are
# quarantined (never blended), epochs never regress, and the client
# error surface stays exactly {200, 503 + Retry-After}.
heal-soak:
	$(GO) test -race -run 'TestHealSoak' -v ./internal/fleet/

# Torn-transfer replication soak (E25), under the race detector: a
# replica converges on a primary's generations through seeded
# mid-stream link cuts, corruption injected into resumed ranges,
# kill/restart between segments, and a throttled link — asserting
# byte-identical installs with monotone per-pull progress, zero
# re-downloads of verified segments (a recorder transport proves it),
# zero wire bytes for segments shared between generations N and N+1,
# and no staging debris after the drain.
ship-soak:
	$(GO) test -race -run 'TestShipSoak' -v ./internal/fleet/

# Streaming-replay soak, under the race detector: fast, slow
# (backpressured), and mid-stream-disconnecting /v1/watch clients while
# the corpus hot-reloads underneath them — asserting gap-free monotone
# frame sequences on every observed stream prefix and zero leaked
# goroutines after the wind-down.
watch-soak:
	$(GO) test -race -run 'TestWatchSoak' -v ./internal/serve/

# Coverage gate on the two subsystems whose failure modes are silent
# corruption and data loss: the generation store and the fleet layer.
# Read from the race run's profile, so no test runs a second time.
# Floors sit a few points under measured coverage (~88% fleet, ~80%
# store) so a tested-path regression fails loud without the gate
# flaking on timing-dependent branches.
cover: race
	@set -e; \
	check() { \
		{ head -1 cover-race.out; grep -E "^hftnetview/$$1/[^/]+:" cover-race.out; } > "cover-$$2.out"; \
		pct="$$($(GO) tool cover -func="cover-$$2.out" | awk '/^total:/ { sub(/%/,"",$$3); print $$3 }')"; \
		echo "./$$1/ coverage: $$pct% (floor $$3%)"; \
		awk -v p="$$pct" -v f="$$3" 'BEGIN { exit !(p+0 >= f+0) }' || { \
			echo "coverage regression: ./$$1/ at $$pct% is below the $$3% floor"; exit 1; }; \
	}; \
	check internal/fleet fleet 85.0; \
	check internal/store store 75.0

# Perf gates. Delta sweep (E22): the engine's anchor dedup (one
# rebuild per distinct event-log anchor) must keep a daily-grid
# evolution sweep >= 10x faster than a rebuild per date, with identical
# points. Same-process ratio, so it holds on any runner; absolute
# numbers are recorded in BENCH_*.json. Snapshot hit (E18): a warm memo hit allocates at most
# once (the header carrying the requested date), without the race
# detector, whose instrumentation allocates on its own. Batch hit
# (E18): a warm batch of the 12 paper-date CME-NY4 requests allocates
# at most 3 times, its entry list, result slice and one block of
# headers (17 when a worker pool resolved the batch a lookup at a
# time), also without the race detector. Batch start: with the rebuild
# semaphore held, a batch of every licensee at the paper date, 57
# misses, registers all 57 before any rebuild runs (a deterministic
# count; the worker pool registered only GOMAXPROCS of them, 2 on a
# 2-core runner). Union budget
# (E13): the complementary-pair analysis builds a union only for loner
# pairs that share a tower site and together file within fiber reach of
# both ends, at most 1 in 20 loner pairs at the paper date (a
# deterministic count, 1 of 903). Rebuild budget (E18): a publish that
# changes one licensee carries every other licensee's snapshots over,
# so re-reading the three paper-date tables rebuilds exactly that
# licensee's 3 families (a deterministic count; 36 without the
# carry-over). Memo bound (E18): 2,000 distinct unknown licensees on
# /v1/evolution and /v1/watch answer 404 and add no memo entry (a
# deterministic count). Reach screen: a paper-date /v1/snapshot on
# CME-NY4 makes exactly 12 engine lookups, one per licensee filed
# within fiber reach of both ends (57 without the screen), and a
# /v1/apa 25: the same 12 for Table 1 and again for the
# complementary-pair batch, which asks for no other licensee because
# none shares a filed site cell with a pair partner, plus one union (70
# when the batch asked for every licensee). Copying every licensee's
# filings out of reach adds no memo entry to a Table 1 and a /v1/apa
# read per corridor path plus a Table 2 read: 39 entries with and
# without the copies, against 174 and 345 when the batch asked for
# every licensee (deterministic counts). Answer hit: a repeated
# request on each /v1 query endpoint is answered from the generation's
# answer cache in at most 20 allocations through the whole handler
# stack (55–124 when every repeat ran the analysis and the encode),
# without the race detector.
bench-gate:
	$(GO) test -run 'TestDeltaSweepBudget' -v .
	$(GO) test -run 'TestSnapshotHitAllocs|TestSnapshotsHitAllocs|TestSnapshotsStartsEveryMiss' -v ./internal/engine/
	$(GO) test -run 'TestComplementaryPairsUnionBudget' -v ./internal/entity/
	$(GO) test -run 'TestInheritRebuildBudget|TestUnknownLicenseeNoMemo|TestSnapshotLookupBudget|TestOutOfReachAddsNoMemo|TestAnswerHitAllocs' -v ./internal/serve/

# Short fuzz pass over the bulk parsers and the two decoders the store's
# single install path trusts. The lenient reader must never panic, must
# always produce a report, and must only load licenses the strict
# reader would re-accept; around every lifecycle date of what it
# salvages, the event log's active count, ActiveAt and
# ActiveCountByLicensee must equal the brute-force License.ActiveAt
# count, so no count goes negative (a seed expires before its grant).
# The strict reader must round-trip whatever it takes. A date parses to
# exactly what the two-layout loop it replaced returned, error text
# included. A shipped manifest is only accepted with a positive generation
# and segment names Save can write; a segment's record block never
# panics the decoder and decodes only when it is byte for byte what the
# encoder writes for the licenses it returns. The /v1 query
# parameters never panic or 5xx the service, and every 200 names two
# distinct data centers, no latency under the c-bound and APA in [0, 1];
# it echoes the date, path, licensee, top and years asked, and a repeat
# returns the same bytes, so an answer-cache key that drops a parameter
# fails.
# A /v1/watch resume, whatever its Last-Event-ID and year window,
# answers 200, 400 or 409, and a 200 streams consecutive frames to eof.
# A /v1/fleet/join body answers 200, 400 or 409, and only a named member
# with an absolute URL is admitted, on the front's lease terms. A peer's
# segment answers, whatever their status, headers and body, make a scrub
# repair return an error or the segment's exact bytes, never read more
# than one byte past the segment's size and never ask the member itself.
# Cheap enough for ci.
fuzz-short:
	$(GO) test ./internal/uls -run '^$$' -fuzz 'FuzzReadBulkLenient' -fuzztime 10s
	$(GO) test ./internal/uls -run '^$$' -fuzz 'FuzzReadBulk$$' -fuzztime 5s
	$(GO) test ./internal/uls -run '^$$' -fuzz 'FuzzParseDate$$' -fuzztime 5s
	$(GO) test ./internal/store -run '^$$' -fuzz 'FuzzParseManifest$$' -fuzztime 5s
	$(GO) test ./internal/store -run '^$$' -fuzz 'FuzzDecodeBlock$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzQueryParams$$' -fuzztime 5s
	$(GO) test ./internal/serve -run '^$$' -fuzz 'FuzzWatchLastEventID$$' -fuzztime 5s
	$(GO) test ./internal/fleet -run '^$$' -fuzz 'FuzzFleetJoin$$' -fuzztime 5s
	$(GO) test ./internal/fleet -run '^$$' -fuzz 'FuzzSegmentResponse$$' -fuzztime 5s

# Full benchmark suite (E1–E17, ablations, engine, serving middleware,
# full-pull vs delta-pull bytes-on-wire), machine-readable.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -json . ./internal/serve/ ./internal/fleet/

# Engine benchmarks only, one iteration each under the race detector:
# a smoke test that the memoized snapshot path stays correct and
# race-free, cheap enough for ci.
bench-short:
	$(GO) test -race -run '^$$' -bench 'BenchmarkEngine' -benchtime 1x .

# Non-test Go lines under internal/ and cmd/, without the benchmark's
# cmd/hftload: the size ROADMAP item 3 and the simplicity entries in
# CHANGES.md quote. A reading, not a gate, and not part of ci.
loc:
	@find internal cmd -name '*.go' ! -name '*_test.go' ! -path 'cmd/hftload/*' -print0 | xargs -0 cat | wc -l

ci: fmt-check vet build race cover bench-gate bench-short fuzz-short
