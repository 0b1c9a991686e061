package stream

import "vibepm/internal/obs"

// Process-wide live-state metrics on the default registry, following
// the store package's convention: resolved once at init so the fold
// and lookup hot paths pay only atomic adds.
var (
	metFolds     = obs.Default.Counter("vibepm_stream_folds_total")
	metHits      = obs.Default.Counter("vibepm_stream_cache_hits_total")
	metMisses    = obs.Default.Counter("vibepm_stream_cache_misses_total")
	metEvictions = obs.Default.Counter("vibepm_stream_evictions_total")
	// metFoldDur times one record's fold — every transform. The fault
	// classification that follows a fold at ingest, and the one per
	// pump at the end of a warm-up, is vibepm_feature_detect_seconds.
	metFoldDur = obs.Default.Histogram("vibepm_stream_fold_seconds", obs.StageBuckets)
	// metFoldJoin is how long a durable ingest still waited for its
	// fold after the add had returned: near zero while the disk is the
	// slower of the two, the fold's excess once the CPU is.
	metFoldJoin = obs.Default.Histogram("vibepm_stream_fold_join_seconds", obs.StageBuckets)
	// metWarmDur is the recovery warm-up wall time — the third leg of
	// the restart breakdown next to the store's snapshot-load and
	// WAL-replay histograms.
	metWarmDur = obs.Default.Histogram("vibepm_stream_warm_duration_seconds", nil)
)
