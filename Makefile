# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: all build test vet race race-obs race-wal race-stream race-cluster race-compact race-recovery race-faults golden-faults bench bench-check experiments experiments-paper chaos crash-trials cover fuzz clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The concurrency suites (gateway, par, chaos) under the race detector.
race:
	$(GO) test -race ./...

# Hammer the metrics registry and logger from many goroutines under
# the race detector — the obs package's concurrency contract.
race-obs:
	$(GO) test -race -run 'TestRegistryRaceHammer|TestLoggerRaceHammer' -count=3 ./internal/obs/

# The durability suites under the race detector: the 200+-offset
# crash-point harness, concurrent ingest during checkpoints, and the
# WAL append/replay tests.
race-wal:
	$(GO) test -race -run 'TestCrashPoint|TestRunCrashTrial|TestCrashWriter|TestWAL|TestDurable' -count=1 ./internal/store/ ./internal/chaos/ ./internal/gateway/

# The streaming analysis path under the race detector: concurrent
# ingest folds, trend assembly and checkpoints on one live state, the
# WAL-replay rebuild, and the engine-level equivalence tests (-short
# keeps the property trial count bounded).
race-stream:
	$(GO) test -race -run 'TestLiveConcurrentIngestTrendCheckpoint|TestWarmFromWALReplay' -count=1 ./internal/stream/
	$(GO) test -race -short -run 'TestLive' -count=1 .

# The clustering suite under the race detector: the node assembly's
# restart tests, the node-kill crash-point sweep (acked ⊆ recovered
# cluster-wide and live ≡ batch on every survivor after failover),
# concurrent ingest across the routing/failover lock handoff, and the
# replication mirror tests (-short bounds the sweep's trial count).
race-cluster:
	$(GO) test -race -short -run 'TestNode|TestCluster|TestRouter|TestRing' -count=1 ./internal/node/ ./internal/cluster/
	$(GO) test -race -run 'TestMirror|TestOnFrame' -count=1 ./internal/store/

# The parallel recovery pipeline under the race detector: the
# sequential-vs-parallel replay equivalence suite (worker pools over
# CRC/decode with in-order apply), the parallel snapshot loader, the
# warm-up worker-invariance and warm-during-ingest probes, and the
# cluster crash trial that pins identical failover outcomes at every
# worker count.
race-recovery:
	$(GO) test -race -run 'TestParallelReplay|TestLoadFileWorkers' -count=1 ./internal/store/
	$(GO) test -race -run 'TestWarmWorkerInvariance|TestWarmConcurrentIngest' -count=1 ./internal/stream/
	$(GO) test -race -run 'TestClusterCrashParallelReplayMatchesSequential' -count=1 ./internal/cluster/

# The fault-taxonomy suite under the race detector: the live-vs-batch
# fault report equivalence over randomized ingestion orders, the
# copy-on-write spec update through the live cache, the detector's
# stream-fold memoization, and eight goroutines classifying through one
# shared detector (TestFaultDetectorSharedScratch: pooled scratch must
# never be handed to two classifications at once).
race-faults:
	$(GO) test -race -run 'TestFaultReport' -count=1 .
	$(GO) test -race -run 'TestFault' -count=1 ./internal/stream/ ./internal/feature/

# The golden classification harness: the pinned labelled corpus must
# classify byte-identically to testdata/faults_golden.json, with zero
# healthy false positives and 100% per-class detection at severity 1.0.
# Regenerate the fixtures with `go test -run FaultGolden -update .`
golden-faults:
	$(GO) test -run 'TestFaultGolden' -count=1 -v .

# The tiered-storage suite under the race detector: the compaction
# crash-point sweep (hot ∪ cold == acked at every partition-write byte
# offset), the tiered checkpoint/retention tests, and the hot/cold
# byte-identical read equivalence.
race-compact:
	$(GO) test -race -run 'TestCompactionCrash|TestTiered|TestPartition|TestRetention|TestColdStore' -count=1 ./internal/chaos/ ./internal/store/
	$(GO) test -race -run 'TestTrendHotColdEquivalence|TestTrendFullyColdPump|TestStorageStatus' -count=1 ./internal/restapi/

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
# bench.out keeps the raw output (CI uploads it; benchstat reads it
# next to BENCH.txt).
BENCH_POOLS = $(BENCH) -bench 'Recovery100k|WarmLive40x10k|EngineFitSmall' -cpu 2 . ./internal/store ./internal/stream

bench-check:
	{ $(BENCH) -bench . -cpu 1 ./... && $(BENCH_POOLS) && \
	  $(BENCH) -bench . -cpu 1 ./... && $(BENCH_POOLS); \
	} > bench.out || { cat bench.out; exit 1; }
	$(GO) run ./cmd/benchgate BENCH.txt < bench.out

# Regenerate every table and figure at the default (medium) scale.
experiments:
	$(GO) run ./cmd/vibebench

# The full 155k-measurement reproduction (minutes).
experiments-paper:
	$(GO) run ./cmd/vibebench -scale paper

# Soak the ingestion pipeline under the hostile fault plan and print the
# reliability report. The golden-file run lives in docs/results/.
chaos:
	$(GO) run ./cmd/vibechaos -motes 8 -days 30 -plan hostile -seed 42

# Sweep 200+ deterministic crash offsets through the WAL byte stream and
# fail if any recovered store diverges from its acked prefix.
crash-trials:
	$(GO) run ./cmd/vibechaos -crash-trials 200 -crash-records 48 -seed 42

cover:
	$(GO) test -cover ./...

# Short fuzz bursts over the binary codec, the WAL frame decoder, the
# transport protocol, and the live ingest fold path.
fuzz:
	$(GO) test -fuzz=FuzzDecodeRecord -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzWALDecode -fuzztime=30s ./internal/store/
	$(GO) test -fuzz=FuzzTransfer -fuzztime=30s ./internal/flush/
	$(GO) test -fuzz=FuzzLiveIngest -fuzztime=30s ./internal/stream/
	$(GO) test -fuzz=FuzzRingRoute -fuzztime=30s ./internal/cluster/
	$(GO) test -fuzz=FuzzImportRecord -fuzztime=30s ./internal/dataset/

clean:
	$(GO) clean ./...
