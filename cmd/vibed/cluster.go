package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"vibepm/internal/cluster"
	"vibepm/internal/node"
)

// runClusterMode serves N in-process full nodes, each opened from the
// options a single vibed uses, behind the consistent-hash router of
// internal/cluster: one listener, every request lands on its pump's
// owner, and /api/v1/cluster/status reports membership, the replication
// chain and shipping counters. Returns the process exit code.
func runClusterMode(addr string, nodes int, member node.Options, ckptEvery, syncEvery time.Duration) int {
	logger := member.Logger
	if nodes < 2 {
		fmt.Fprintln(os.Stderr, "-cluster needs at least 2 nodes")
		return 2
	}
	// Members boot empty and untiered: sharding a corpus across the ring
	// does not exist, and failover and the retarget bootstrap read only a
	// member's hot store, so a tiered member would drop its cold records.
	var refused []string
	flag.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "data", "simulate", "seed", "tiered", "cold-dir", "retention", "hot-window-days", "partition-days":
			refused = append(refused, "-"+f.Name)
		}
	})
	if len(refused) > 0 {
		fmt.Fprintf(os.Stderr, "-cluster cannot be combined with %s (members boot empty and untiered)\n", strings.Join(refused, ", "))
		return 2
	}
	if member.Dir == "" {
		fmt.Fprintln(os.Stderr, "-cluster needs -wal-dir (each node keeps its own WAL under it)")
		return 2
	}
	c, err := cluster.Open(member.Dir, cluster.MemberNames(nodes), cluster.Options{Node: member})
	if err != nil {
		logger.Error("open cluster failed", "dir", member.Dir, "err", err)
		return 1
	}
	for _, ns := range c.Status().Nodes {
		c.Node(ns.Name).StartMaintenance(ckptEvery, syncEvery)
		logger.Info("cluster node up", "node", ns.Name, "records", ns.Records, "ships_to", ns.ShipsTo)
	}
	logger.Info("cluster listening", "addr", addr, "nodes", nodes, "fsync", member.Durable.WAL.Policy.String())
	return serveUntilSignal(addr, c.Router(), logger, func() error {
		err := c.Close()
		if err != nil {
			logger.Error("cluster close", "err", err)
		}
		return err
	}, "cluster stopped cleanly")
}
