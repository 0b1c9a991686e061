package chaos

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"vibepm/internal/cluster"
	"vibepm/internal/node"
	"vibepm/internal/store"
)

// victim is the cluster member whose writes go through the budget.
// Mirror writes on its follower are real, so the crash point is a
// deterministic function of the victim's own appends.
const victim = "n1"

// clusterSubject is a three-member cluster. A fired budget kills the
// victim and promotes its follower, and ingest goes on through the
// post-failover ring.
type clusterSubject struct {
	dir    string
	member node.Options
	c      *cluster.Cluster
}

func openCluster(dir string, b *CrashBudget, cfg trialConfig) (subject, error) {
	// Members classify faults like a default vibed, so live ≡ batch
	// covers the fault report too.
	s := &clusterSubject{dir: dir, member: node.Options{Faults: true, Durable: cfg.durable()}}
	names := cluster.MemberNames(3)
	c, err := cluster.Open(dir, names, cluster.Options{
		Node: s.member,
		WrapFileFor: func(name string) func(string, *os.File) store.SegmentFile {
			if name == victim {
				return b.Wrap
			}
			return nil
		},
	})
	if err != nil && b.Crashed() {
		// The budget fired in the victim's first segment writes: it
		// died at boot, and the cluster forms without it.
		c, err = cluster.Open(dir, names[1:], cluster.Options{Node: s.member})
	}
	s.c = c
	return s, err
}

func (s *clusterSubject) ingest(rec *store.Record) (bool, error) {
	_, stored, err := s.c.Ingest(rec)
	return stored, err
}

func (s *clusterSubject) checkpoint() error {
	for _, name := range s.live() {
		if _, err := s.c.Node(name).Durable.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// fire kills the victim, which promotes its follower; its report is
// the failover.
func (s *clusterSubject) fire() (any, error) {
	if s.c.Node(victim) == nil {
		return cluster.FailoverStats{Node: victim}, nil // died at boot
	}
	return s.c.Kill(victim)
}

func (s *clusterSubject) reboot(clean bool) error {
	names := s.live()
	var closeErr error
	if clean {
		closeErr = s.c.Close()
	} else {
		s.c.Abort()
	}
	// A cut past all the victim wrote so far fires in its close-time
	// checkpoint: a crash at shutdown, which the reopen recovers from.
	if closeErr != nil && !errors.Is(closeErr, ErrCrashed) {
		return fmt.Errorf("clean close: %w", closeErr)
	}
	c, err := cluster.Open(s.dir, names, cluster.Options{Node: s.member})
	if err != nil {
		return err
	}
	s.c = c
	if clean && closeErr == nil {
		return nil
	}
	// A member that recovered from a crash checkpoints in the
	// background (node.Open); a second, clean restart waits for it, so
	// the checks find every directory at rest.
	return s.reboot(true)
}

// live names the live members in boot order.
func (s *clusterSubject) live() []string {
	var names []string
	for _, n := range s.c.Status().Nodes {
		if n.Alive {
			names = append(names, n.Name)
		}
	}
	return names
}

// nodes sees each live member through its directory, which holds the
// mirrors it hosts too.
func (s *clusterSubject) nodes() []trialNode {
	var nodes []trialNode
	for _, name := range s.live() {
		n := s.c.Node(name)
		nodes = append(nodes, trialNode{dir: filepath.Join(s.dir, name), hot: n.Store, live: n.Live})
	}
	return nodes
}

func (s *clusterSubject) abort() { s.c.Abort() }

// clusterTrial is the cluster's schedule: writers concurrent writers
// stream records records each, every attempted record is re-sent (the
// client retrying after the outage), and the survivors reboot from
// disk by a clean close.
func clusterTrial(seed int64, records, writers int) trialConfig {
	return trialConfig{
		open: openCluster, seed: seed,
		segmentBytes: 1 << 11, // small segments: crashes hit rotations, mirrors switch files
		policy:       store.SyncAlways,
		schedule: []step{
			{kind: stepStream, records: records, writers: writers},
			{kind: stepReingest}, {kind: stepClose},
		},
	}
}

// TestClusterNodeKillSweep is the clustering headline: for a sweep of
// seeded crash offsets, one node's WAL byte stream is cut mid-ingest,
// the node is killed, its follower promotes the replicated mirror, and
// the cluster-wide record set must still contain every acknowledged
// ingest byte-for-byte (and nothing that was never sent). SweepCuts
// strides the victim's whole log with seeded jitter, so the cut lands
// in frame headers, payloads, segment headers, and rotation
// boundaries; every trial then re-ingests the failed tail (full
// convergence) and reboots the surviving cluster from disk.
func TestClusterNodeKillSweep(t *testing.T) {
	base := clusterTrial(42, 48, 1)
	total := probeTrial(t, base).Bytes
	if total < 500 {
		t.Fatalf("probe: victim wrote implausibly few WAL bytes: %d", total)
	}
	n := 48
	if testing.Short() {
		n = 12
	}
	cuts := SweepCuts(total, n, 3)
	sweep(t, base, total, cuts, func(i int, res trialResult) {
		if res.Acked+res.Failed != res.Attempted {
			t.Fatalf("trial %d: acked %d + failed %d != attempted %d", i, res.Acked, res.Failed, res.Attempted)
		}
		if res.Crashed && res.Fired == nil {
			t.Fatalf("trial %d: crashed but no node was killed: %+v", i, res)
		}
	})
	t.Logf("%d node-kill trials over %d victim WAL bytes, each re-ingested and rebooted; acked ⊆ recovered held in all", len(cuts), total)
}

// TestClusterCrashTrialDeterminism: the same crash offset over the
// same seeded stream produces the same outcome, twice.
func TestClusterCrashTrialDeterminism(t *testing.T) {
	cfg := clusterTrial(17, 40, 1)
	a, b := runCut(t, cfg, 800), runCut(t, cfg, 800)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same crash offset, different outcomes:\n%+v\n%+v", a, b)
	}
	if !a.Crashed || a.Fired == nil {
		t.Fatalf("crash at 800 should kill the victim: %+v", a)
	}
	if a.Acked >= a.Attempted {
		t.Fatalf("crash should cut some ingests short: %+v", a)
	}
}

// TestClusterCrashParallelReplayMatchesSequential runs identical
// crash trials with sequential and parallel recovery and asserts the
// full trial outcome — acked, recovered, failover stats — is
// identical: recovery parallelism must be observable only as speed.
func TestClusterCrashParallelReplayMatchesSequential(t *testing.T) {
	for _, off := range []int64{600, 1500, 2800, 4100} {
		cfg := clusterTrial(23, 44, 1)
		cfg.replayWorkers = 1
		seq := runCut(t, cfg, off)
		cfg.replayWorkers = 4
		if par := runCut(t, cfg, off); !reflect.DeepEqual(seq, par) {
			t.Fatalf("offset %d: trial outcomes diverge\nsequential: %+v\nparallel:   %+v", off, seq, par)
		}
	}
}

// TestClusterCrashConcurrentIngest kills a node while four writers
// ingest concurrently and every member checkpoints at every 16th ack —
// the race-detector workout for the routing read-lock vs. failover
// write-lock handoff — then re-sends the stream, crashes the whole
// cluster and restarts it cleanly.
func TestClusterCrashConcurrentIngest(t *testing.T) {
	for trial := 0; trial < 6; trial++ {
		cfg := clusterTrial(int64(trial)*100, 40, 4)
		cfg.schedule[0].every = 16
		cfg.schedule = append(cfg.schedule[:2], step{kind: stepAbort}, step{kind: stepClose})
		runCut(t, cfg, int64(2000+700*trial))
	}
}
