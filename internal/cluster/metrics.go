package cluster

import "vibepm/internal/obs"

// Cluster metrics on the default registry. Shipping volume
// (vibepm_cluster_frames_shipped_total / ship_bytes_total) is counted
// at the mirror in internal/store, where the bytes actually land;
// replication lag in frames is zero by construction — shipping is
// synchronous, inside the ack path — so what an operator watches is
// the failure-handling counters here.
var (
	metLiveNodes       = obs.Default.Gauge("vibepm_cluster_live_nodes")
	metFailovers       = obs.Default.Counter("vibepm_cluster_failovers_total")
	metFailoverRecords = obs.Default.Counter("vibepm_cluster_failover_records_redistributed_total")
	metForwards        = obs.Default.Counter("vibepm_cluster_router_forwards_total")
)
