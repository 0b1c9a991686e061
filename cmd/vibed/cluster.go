package main

import (
	"fmt"
	"os"
	"time"

	"vibepm/internal/cluster"
	"vibepm/internal/obs"
	"vibepm/internal/restapi"
	"vibepm/internal/store"
)

// runClusterMode serves N in-process vibed-style nodes behind the
// consistent-hash router: each node owns a hash range of the pump
// space, logs its ingests to its own WAL, and ships every frame
// synchronously to its follower's mirror. One listener fronts the
// whole cluster; requests land on their pump's owner, and
// /api/v1/cluster/status reports membership, the replication chain,
// and shipping counters. Returns the process exit code.
func runClusterMode(addr, walDir, fsyncPolicy string, nodes int, maxBodyBytes int64, ckptEvery, syncEvery time.Duration, logger *obs.Logger) int {
	if walDir == "" {
		fmt.Fprintln(os.Stderr, "-cluster needs -wal-dir (each node keeps its own WAL under it)")
		return 2
	}
	policy, err := store.ParseSyncPolicy(fsyncPolicy)
	if err != nil {
		logger.Error("bad -fsync", "err", err)
		return 2
	}
	names := make([]string, nodes)
	for i := range names {
		names[i] = fmt.Sprintf("n%d", i+1)
	}
	c, err := cluster.Open(walDir, names, cluster.Options{
		WAL: store.WALOptions{Policy: policy},
	})
	if err != nil {
		logger.Error("open cluster failed", "dir", walDir, "err", err)
		return 1
	}
	rt := cluster.NewRouter(c.Ring(), c.Status)
	for _, name := range names {
		n := c.Node(name)
		d := n.Durable()
		d.StartCheckpointLoop(ckptEvery, syncEvery, func(err error) {
			logger.Warn("durable background maintenance", "node", name, "err", err)
		})
		api := restapi.New(d.Store(), nil, nil,
			restapi.WithDurable(d),
			restapi.WithMaxBodyBytes(maxBodyBytes))
		rt.SetNode(name, api, "")
	}
	st := c.Status()
	for _, ns := range st.Nodes {
		logger.Info("cluster node up", "node", ns.Name, "records", ns.Records, "ships_to", ns.ShipsTo)
	}

	logger.Info("cluster listening", "addr", addr, "nodes", nodes, "fsync", policy.String())
	return serveUntilSignal(addr, rt, logger, func() error {
		if err := c.Close(); err != nil {
			logger.Error("cluster close", "err", err)
			return err
		}
		logger.Info("cluster stopped cleanly")
		return nil
	})
}
