package store

import "vibepm/internal/obs"

// Process-wide store metrics on the default registry. They aggregate
// across every Measurements instance in the process — the per-process
// totals an operator scrapes, mirroring how Prometheus process metrics
// behave. The pointers are resolved once at init so the insert hot
// path pays only atomic adds.
var (
	metRecordsAdded = obs.Default.Counter("vibepm_store_records_added_total")
	metRecordBytes  = obs.Default.Counter("vibepm_store_record_bytes_total")
	metDupSuppress  = obs.Default.Counter("vibepm_store_duplicates_suppressed_total")
	metRecordsLoad  = obs.Default.Counter("vibepm_store_records_loaded_total")

	// Durability-layer metrics: WAL write path, recovery replay, and
	// checkpointing.
	metWALAppends     = obs.Default.Counter("vibepm_store_wal_appends_total")
	metWALBytes       = obs.Default.Counter("vibepm_store_wal_bytes_total")
	metWALFsyncs      = obs.Default.Counter("vibepm_store_wal_fsyncs_total")
	metWALRotations   = obs.Default.Counter("vibepm_store_wal_rotations_total")
	metWALSegRetired  = obs.Default.Counter("vibepm_store_wal_segments_retired_total")
	metWALReplayed    = obs.Default.Counter("vibepm_store_wal_records_replayed_total")
	metWALTruncations = obs.Default.Counter("vibepm_store_wal_truncations_total")
	metRecoveries     = obs.Default.Counter("vibepm_store_recoveries_total")
	metCheckpoints    = obs.Default.Counter("vibepm_store_checkpoints_total")
	metCheckpointDur  = obs.Default.Histogram("vibepm_store_checkpoint_duration_seconds", nil)

	// Recovery phase breakdown: snapshot decode and WAL replay wall
	// time per OpenDurable, feeding the vibed recovery log line.
	metRecoverySnapDur   = obs.Default.Histogram("vibepm_store_recovery_snapshot_load_seconds", nil)
	metRecoveryReplayDur = obs.Default.Histogram("vibepm_store_recovery_replay_seconds", nil)

	// Replication metrics: frames/bytes accepted by follower-side
	// segment mirrors in this process (internal/cluster drives these).
	metClusterFramesShipped = obs.Default.Counter("vibepm_cluster_frames_shipped_total")
	metClusterShipBytes     = obs.Default.Counter("vibepm_cluster_ship_bytes_total")

	// Cold-tier metrics: the compactor's partition writes, hot-side
	// evictions, and retention drops. The byte counters are what the
	// `vibectl storage status` compression ratio is derived from when
	// scraping rather than querying.
	metColdPartitionsWritten = obs.Default.Counter("vibepm_store_cold_partitions_written_total")
	metColdPartitionsDropped = obs.Default.Counter("vibepm_store_cold_partitions_dropped_total")
	metColdRecordsCompacted  = obs.Default.Counter("vibepm_store_cold_records_compacted_total")
	metColdRecordsEvicted    = obs.Default.Counter("vibepm_store_cold_records_evicted_total")
	metColdBytesWritten      = obs.Default.Counter("vibepm_store_cold_compressed_bytes_total")
	metColdRawBytesCompacted = obs.Default.Counter("vibepm_store_cold_raw_bytes_total")
	// metColdHotStragglers gauges records below the cold coverage bound
	// that no partition holds (late arrivals): they stay hot forever by
	// design, and an operator watching this gauge sees how many.
	metColdHotStragglers = obs.Default.Gauge("vibepm_store_cold_hot_stragglers")
)

// rawBytes is the in-memory payload size of one record: three int16
// axes plus the fixed metadata fields.
func rawBytes(rec *Record) uint64 {
	return uint64(2 * (len(rec.Raw[0]) + len(rec.Raw[1]) + len(rec.Raw[2])))
}
