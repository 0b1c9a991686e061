# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race lines golden-faults bench bench-check experiments experiments-paper results results-check paper-check chaos crash-trials cover fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Every suite under the race detector — what CI's build-test job runs.
race:
	$(GO) test -race ./...

# The size ledger ROADMAP aim 2 and item 7 track, from the one command
# every re-anchor used: Go lines outside benchmark/, non-test and test,
# then internal/store and internal/stream non-test. A line that moves
# from the first number into the second was moved, not deleted.
NONTEST = -name '*.go' -not -name '*_test.go'
lines:
	@printf 'non-test Go lines outside benchmark/: '; find . $(NONTEST) -not -path './benchmark/*' | xargs cat | wc -l
	@printf 'test Go lines outside benchmark/:     '; find . -name '*_test.go' -not -path './benchmark/*' | xargs cat | wc -l
	@printf 'internal/store non-test:              '; find internal/store $(NONTEST) | xargs cat | wc -l
	@printf 'internal/stream non-test:             '; find internal/stream $(NONTEST) | xargs cat | wc -l

# The golden classification harness: the pinned labelled corpus must
# classify byte-identically to testdata/faults_golden.json, with zero
# healthy false positives and 100% per-class detection at severity 1.0.
# Regenerate the fixtures with `go test -run FaultGolden -update .`
golden-faults:
	$(GO) test -run 'TestFaultGolden' -count=1 -v .

# Every benchmark, once: one testing.B per paper table/figure
# (bench_test.go) plus the hot-path cases beside the layer they price.
# Select with `go test -run '^$$' -bench Regex -benchmem ./pkg`; pass one
# -cpu value per invocation (under go1.24 a b.Loop benchmark's first
# -cpu list entry runs at the GOMAXPROCS the previous benchmark left).
BENCH = $(GO) test -run '^$$' -benchmem

bench:
	$(BENCH) -bench . ./...

# Gate the hot paths against the pinned anchor. BENCH.txt is `go test
# -bench` text edited only by deliberate per-row re-anchor, never
# re-snapshotted. The suite runs in two passes at -cpu 1 (what the
# carried rows were measured at) and benchgate keeps each name's lower
# reading per metric: the passes sit minutes apart, so a slow phase of
# a shared host has to outlast a whole pass to fail a row. After each
# pass the worker-pool cases run at -cpu 2 against their own `-2` rows.
# PaperPassSmall runs at its own 60 iterations, the benchtime its row
# was anchored at: at the default 13-18 one build reads +-20 %.
# bench.out keeps the raw output (CI uploads it; benchstat reads it
# next to BENCH.txt).
BENCH_POOLS = $(BENCH) -bench 'Recovery100k|RecoveryPaperShape|SnapshotLoadPaperShape|WarmLive40x10k|EngineFitSmall' -cpu 2 . ./internal/store ./internal/stream
BENCH_PASS = $(BENCH) -bench . -skip 'PaperPassSmall$$' -cpu 1 ./... && \
	$(BENCH) -bench 'PaperPassSmall$$' -benchtime 60x -cpu 1 . && $(BENCH_POOLS)

bench-check:
	{ $(BENCH_PASS) && $(BENCH_PASS); } > bench.out || { cat bench.out; exit 1; }
	$(GO) run ./cmd/benchgate BENCH.txt < bench.out

# Regenerate every table and figure at the default (medium) scale.
experiments:
	$(GO) run ./cmd/vibebench

# The full 155k-measurement reproduction.
experiments-paper:
	$(GO) run ./cmd/vibebench -scale paper

# The committed reproduction: the whole output of both scales, each
# stamped with the machine it ran on (first line) and its wall clock
# (last line), plus the medium run split per experiment under figures/.
# EXPERIMENTS.md and ROADMAP quote these files.
results:
	$(GO) run ./cmd/vibebench -scale medium -out docs/results/figures > docs/results/medium-scale.txt
	$(GO) run ./cmd/vibebench -scale paper > docs/results/paper-scale.txt

# Re-run the medium scale (~10 s) against its committed file: only the
# machine stamp and the timing lines may differ. CI's build-test job
# runs it, so the committed output cannot go stale.
results-check:
	$(GO) run ./cmd/vibebench -scale medium | diff \
	  -I '^# vibebench ' -I '^corpus ready in ' -I '^(.*s)$$' \
	  docs/results/medium-scale.txt -

# The paper scale (~30 s, ~2 GB resident) against its committed file,
# the same stamp and timing lines aside: the output half of the paper
# run's gate. The transcript stays in paper-check.out. Too slow for the
# per-PR jobs: its home is the paper-check workflow (manual and
# weekly), which uploads that file.
paper-check:
	$(GO) run ./cmd/vibebench -scale paper > paper-check.out
	diff -I '^# vibebench ' -I '^corpus ready in ' -I '^(.*s)$$' \
	  docs/results/paper-scale.txt paper-check.out

# Soak the ingestion pipeline under the hostile fault plan and print the
# reliability report. The golden-file run lives in docs/results/.
chaos:
	$(GO) run ./cmd/vibechaos -motes 8 -days 30 -plan hostile -seed 42

# The crash sweeps, outside the race detector: chaos.SweepCuts' offsets
# through everything a tiered, checkpointing store writes (WAL
# segments, snapshot temps, partition temps; the log counts the cuts
# per file kind), through one compaction's partition bytes, and through
# a cluster member's WAL until it is killed and its follower promoted.
crash-trials:
	$(GO) test -count=1 -v -run '^(TestCrashPointHarness|TestCompactionCrashSweep|TestClusterNodeKillSweep)$$' ./internal/chaos ./internal/cluster

cover:
	$(GO) test -cover ./...

# Short fuzz bursts over the binary codec, the WAL frame decoder, the
# transport protocol, the live ingest fold path, the mean shift index
# against its reference scan, and the rotor scan's rank index against
# selection.
fuzz:
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzTransfer -fuzztime=30s ./internal/flush/
	$(GO) test -fuzz=FuzzLiveIngest -fuzztime=30s ./internal/stream/
	$(GO) test -fuzz=FuzzRingRoute -fuzztime=30s ./internal/cluster/
	$(GO) test -fuzz=FuzzImportRecord -fuzztime=30s ./internal/dataset/
	$(GO) test -fuzz=FuzzClusterEquivalence -fuzztime=30s ./internal/meanshift/
	$(GO) test -fuzz=FuzzFloorIndex -fuzztime=30s ./internal/feature/

clean:
	$(GO) clean ./...
