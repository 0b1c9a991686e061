package main

// The benchmark's contract in one place: workloads, end-to-end metrics
// with their bounds, and the per-layer metric names. BENCHMARK.json at
// the repo root restates these tables for the driver; spec_test.go
// fails when the two drift apart.

type workloadSpec struct {
	Name string
	Why  string
	run  func(*env) (*result, error)
}

type metricSpec struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

var workloads = []workloadSpec{
	{"ingest_steady", "write path dominates: restapi decode, store WAL + fsync, stream fold, feature classify; engine and preprocess idle", runIngestSteady},
	{"dashboard_read", "read path dominates: generation-keyed caches keep rebuilding under a write trickle; WAL and fold nearly idle", runDashboardRead},
	{"recovery_restart", "process start to serving: store snapshot load + WAL replay, stream warm, engine fit; restapi serves one request", runRecoveryRestart},
	{"paper_batch", "the paper's evaluation in-process: dsp, feature, kde, ransac, meanshift do the work; store WAL and restapi none", runPaperBatch},
}

// endToEnd lists what a user of the system sees. Every workload
// reports every metric; the meaning of the role-named ones per
// workload is in README.md ("Metric glossary"). The bounds are what
// the 2-core sandbox's run-to-run spread supports (README.md, "What
// moved to the per-layer list").
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"op_ms", "ms", "lower", 0.25},
	{"view_ms", "ms", "lower", 0.25},
	{"capacity_per_s", "1/s", "higher", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayer names every layer metric a traced run prints. A workload
// that does not exercise a layer reports 0 for it: the layer did no
// work there, which is the "no change expected" side of a prediction.
var perLayer = []metricSpec{
	// ingest path, p50 µs per traced op
	{"restapi.ingest_handler", "us", "lower", 0},
	{"restapi.json_decode", "us", "lower", 0},
	{"restapi.ingest_self", "us", "lower", 0},
	{"store.add_unique", "us", "lower", 0},
	{"store.wal_append_nosync", "us", "lower", 0},
	{"store.fsync_wait", "us", "lower", 0},
	{"store.encode", "us", "lower", 0},
	{"stream.fold", "us", "lower", 0},
	{"stream.fold_nofaults", "us", "lower", 0},
	{"feature.detect", "us", "lower", 0},
	{"feature.harmonic", "us", "lower", 0},
	{"feature.da", "us", "lower", 0},
	// read path, p50 µs per traced op
	{"restapi.trend_miss", "us", "lower", 0},
	{"restapi.trend_hit", "us", "lower", 0},
	{"restapi.trend_304", "us", "lower", 0},
	{"store.pyramid_build", "us", "lower", 0},
	{"store.pyramid_downsample", "us", "lower", 0},
	{"restapi.faults_miss", "us", "lower", 0},
	{"engine.fault_status", "us", "lower", 0},
	{"restapi.rul_miss", "us", "lower", 0},
	{"engine.lifetime_models", "us", "lower", 0},
	{"engine.clean_trend", "us", "lower", 0},
	{"preprocess.outliers", "us", "lower", 0},
	{"preprocess.smooth", "us", "lower", 0},
	{"restapi.fleet_miss", "us", "lower", 0},
	{"restapi.fleet_hit", "us", "lower", 0},
	{"engine.fleet_report", "us", "lower", 0},
	// counts scraped from GET /api/v1/metrics around the child-process run
	{"store.fsyncs_per_append", "ratio", "lower", 0},
	{"store.wal_bytes_per_user_byte", "ratio", "lower", 0},
	{"store.checkpoints", "count", "lower", 0},
	{"store.checkpoint_s", "s", "lower", 0},
	{"restapi.trend_cache_hit_ratio", "ratio", "higher", 0},
	{"store.pyramid_cache_hit_ratio", "ratio", "higher", 0},
	{"engine.trend_cache_hit_ratio", "ratio", "higher", 0},
	{"stream.cache_hit_ratio", "ratio", "higher", 0},
	// recovery stages
	{"store.load_file_s", "s", "lower", 0},
	{"store.snapshot_load_s", "s", "lower", 0},
	{"store.replay_s", "s", "lower", 0},
	{"store.replay_s_w1", "s", "lower", 0},
	{"store.replay_mb_per_s", "MB/s", "higher", 0},
	{"stream.warm_s", "s", "lower", 0},
	{"stream.warm_records_per_s", "1/s", "higher", 0},
	{"store.post_recovery_checkpoint_s", "s", "lower", 0},
	{"engine.fit_s", "s", "lower", 0},
	{"engine.first_fleet_s", "s", "lower", 0},
	// paper batch stages
	{"dataset.generate_s", "s", "lower", 0},
	{"dataset.records_per_s", "1/s", "higher", 0},
	{"experiments.fig11_s", "s", "lower", 0},
	{"experiments.sweep_s", "s", "lower", 0},
	{"experiments.table3_s", "s", "lower", 0},
	{"experiments.fig15_s", "s", "lower", 0},
	// tails that were too noisy for an end-to-end bound on this sandbox
	// (op_tail_ms is the p90 of what op_ms is the median of); the
	// ingest ones are measured with checkpoints firing in the window
	{"op_tail_ms", "ms", "lower", 0},
	{"ingest.ack_p99_ms", "ms", "lower", 0},
	{"ingest.visible_p99_ms", "ms", "lower", 0},
	{"dashboard.read_p50_ms", "ms", "lower", 0},
	{"dashboard.read_p99_ms", "ms", "lower", 0},
	{"dashboard.fleet_p90_ms", "ms", "lower", 0},
	// generator validity and trace sanity
	{"generator.lag_p99_ms", "ms", "lower", 0},
	{"generator.backlog_end", "count", "lower", 0},
	{"trace.unattributed_share", "ratio", "lower", 0},
	{"trace.gap_ms", "ms", "lower", 0},
}
