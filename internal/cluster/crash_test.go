package cluster

import (
	"math/rand"
	"os"
	"sync"
	"testing"

	"vibepm/internal/chaos"
	"vibepm/internal/store"
)

// TestClusterNodeKillSweep is the clustering headline: for a sweep of
// seeded crash offsets, one node's WAL byte stream is cut mid-ingest,
// the node is killed, its follower promotes the replicated mirror, and
// the cluster-wide record set must still contain every acknowledged
// ingest byte-for-byte (and nothing that was never sent). Offsets
// stride the victim's whole log with seeded jitter, so the cut lands
// in frame headers, payloads, segment headers, and rotation
// boundaries; every few trials also re-ingest the failed tail (full
// convergence) or reboot the surviving cluster from disk.
func TestClusterNodeKillSweep(t *testing.T) {
	base := ClusterCrashConfig{
		Seed:         42,
		Records:      48,
		SegmentBytes: 1 << 11, // small segments: crashes hit rotations, mirrors switch files
		Policy:       store.SyncAlways,
	}

	// Probe run without a crash: learns the victim's total WAL bytes.
	probe := base
	probe.Dir = t.TempDir()
	probeRes, err := RunClusterCrashTrial(probe)
	if err != nil {
		t.Fatalf("probe trial: %v", err)
	}
	if probeRes.Acked != base.Records || probeRes.Crashed {
		t.Fatalf("probe trial: acked %d of %d, crashed=%v", probeRes.Acked, base.Records, probeRes.Crashed)
	}
	total := probeRes.WALBytes
	if total < 500 {
		t.Fatalf("probe: victim wrote implausibly few WAL bytes: %d", total)
	}

	minTrials := 48
	if testing.Short() {
		minTrials = 12
	}
	stride := total / int64(minTrials)
	if stride < 1 {
		stride = 1
	}
	rng := rand.New(rand.NewSource(3))
	policies := []store.SyncPolicy{store.SyncAlways, store.SyncNever, store.SyncInterval}
	// Alternate recovery parallelism so boot recovery, mirror replay at
	// promotion, and reopen all run under the parallel replayer for
	// most offsets (and stay swept sequentially too).
	workerCycle := []int{4, 1, 0}
	trials := 0
	for off := int64(1); off <= total; off += stride {
		jitter := rng.Int63n(stride + 1)
		cfg := base
		cfg.Dir = t.TempDir()
		cfg.CrashAfterBytes = min(off+jitter, total)
		cfg.Policy = policies[trials%len(policies)]
		cfg.Reingest = trials%3 == 0
		cfg.Reopen = trials%8 == 0
		cfg.ReplayWorkers = workerCycle[trials%len(workerCycle)]
		res, err := RunClusterCrashTrial(cfg)
		if err != nil {
			t.Fatalf("trial %d (crash at byte %d, policy %v): %v",
				trials, cfg.CrashAfterBytes, cfg.Policy, err)
		}
		if res.Acked+res.Failed != res.Attempted {
			t.Fatalf("trial %d: acked %d + failed %d != attempted %d",
				trials, res.Acked, res.Failed, res.Attempted)
		}
		if !res.Crashed && cfg.CrashAfterBytes < total {
			t.Fatalf("trial %d: budget %d of %d never fired", trials, cfg.CrashAfterBytes, total)
		}
		if res.Crashed && res.Victim == "" {
			t.Fatalf("trial %d: crashed but no node was killed: %+v", trials, res)
		}
		trials++
	}
	// Exact boundaries: first byte, the segment-header edge (the victim
	// dies while booting), and the final bytes of the stream.
	hdr := int64(len("VPMWAL1\n"))
	for _, off := range []int64{1, hdr - 1, hdr, total - 1, total} {
		cfg := base
		cfg.Dir = t.TempDir()
		cfg.CrashAfterBytes = off
		cfg.Reingest = true
		cfg.ReplayWorkers = 4
		if _, err := RunClusterCrashTrial(cfg); err != nil {
			t.Fatalf("boundary trial (crash at byte %d): %v", off, err)
		}
		trials++
	}
	if trials < minTrials {
		t.Fatalf("only %d node-kill trials ran, want >= %d", trials, minTrials)
	}
	t.Logf("%d node-kill trials over %d victim WAL bytes, acked ⊆ recovered held in all", trials, total)
}

// TestClusterCrashTrialDeterminism: the same crash offset over the
// same seeded stream produces the same outcome, twice.
func TestClusterCrashTrialDeterminism(t *testing.T) {
	run := func() (ClusterCrashResult, error) {
		return RunClusterCrashTrial(ClusterCrashConfig{
			Dir:             t.TempDir(),
			Seed:            17,
			Records:         40,
			CrashAfterBytes: 800,
			SegmentBytes:    1 << 11,
			Policy:          store.SyncAlways,
		})
	}
	a, err := run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same crash offset, different outcomes:\n%+v\n%+v", a, b)
	}
	if !a.Crashed || a.Victim == "" {
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
		run := func(workers int) ClusterCrashResult {
			res, err := RunClusterCrashTrial(ClusterCrashConfig{
				Dir:             t.TempDir(),
				Seed:            23,
				Records:         44,
				CrashAfterBytes: off,
				SegmentBytes:    1 << 11,
				Policy:          store.SyncAlways,
				Reingest:        true,
				ReplayWorkers:   workers,
			})
			if err != nil {
				t.Fatalf("offset %d workers %d: %v", off, workers, err)
			}
			return res
		}
		seq, par := run(1), run(4)
		if seq != par {
			t.Fatalf("offset %d: trial outcomes diverge\nsequential: %+v\nparallel:   %+v", off, seq, par)
		}
	}
}

// TestClusterCrashConcurrentIngest kills a node while several
// goroutines ingest concurrently — the race-detector workout for the
// routing read-lock vs. failover write-lock handoff. Contract checked:
// every acked record is in the post-failover union, every union record
// was attempted.
func TestClusterCrashConcurrentIngest(t *testing.T) {
	const (
		writers   = 4
		perWriter = 40
	)
	for trial := 0; trial < 6; trial++ {
		victim := "n1"
		budget := chaos.NewCrashBudget(int64(2000 + 700*trial))
		opts := memberWAL(store.WALOptions{SegmentBytes: 1 << 11, Policy: store.SyncAlways})
		opts.WrapFileFor = func(node string) func(string, *os.File) store.SegmentFile {
			if node == victim {
				return budget.Wrap
			}
			return nil
		}
		c, err := Open(t.TempDir(), MemberNames(3), opts)
		if err != nil {
			t.Fatalf("trial %d: open: %v", trial, err)
		}
		var (
			mu        sync.Mutex
			acked     []*store.Record
			attempted []*store.Record
			killOnce  sync.Once
		)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(trial)*100 + int64(w)))
				for i := 0; i < perWriter; i++ {
					rec := chaos.TrialRecord(rng, i)
					rec.PumpID = w*100 + i%16
					mu.Lock()
					attempted = append(attempted, rec)
					mu.Unlock()
					_, stored, err := c.Ingest(rec)
					if err != nil {
						if !budget.Crashed() {
							t.Errorf("trial %d writer %d: unexpected ingest error: %v", trial, w, err)
							return
						}
						killOnce.Do(func() {
							if _, err := c.Kill(victim); err != nil {
								t.Errorf("trial %d: kill: %v", trial, err)
							}
						})
						continue
					}
					if !stored {
						t.Errorf("trial %d writer %d: false duplicate", trial, w)
						return
					}
					mu.Lock()
					acked = append(acked, rec)
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if t.Failed() {
			c.abortAll()
			return
		}
		if err := chaos.CheckRecovered(c.Union(), acked, attempted); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		c.abortAll()
	}
}
