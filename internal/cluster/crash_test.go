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
// ingest byte-for-byte (and nothing that was never sent). SweepCuts
// strides the victim's whole log with seeded jitter, so the cut lands
// in frame headers, payloads, segment headers, and rotation
// boundaries; every trial then re-ingests the failed tail (full
// convergence) and reboots the surviving cluster from disk.
func TestClusterNodeKillSweep(t *testing.T) {
	base := crashTrialConfig{
		Seed:         42,
		Records:      48,
		SegmentBytes: 1 << 11, // small segments: crashes hit rotations, mirrors switch files
		Policy:       store.SyncAlways,
	}

	// Probe run without a crash: learns the victim's total WAL bytes.
	probe := base
	probe.Dir = t.TempDir()
	probeRes, err := runCrashTrial(probe)
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

	n := 48
	if testing.Short() {
		n = 12
	}
	cuts := chaos.SweepCuts(total, n, 3)
	for i, cut := range cuts {
		cfg := base
		cfg.Dir = t.TempDir()
		cfg.CrashAfterBytes = cut.At
		cfg.Policy, cfg.ReplayWorkers = cut.Policy, cut.ReplayWorkers
		res, err := runCrashTrial(cfg)
		if err != nil {
			t.Fatalf("trial %d (crash at byte %d, policy %v): %v", i, cut.At, cut.Policy, err)
		}
		if res.Acked+res.Failed != res.Attempted {
			t.Fatalf("trial %d: acked %d + failed %d != attempted %d",
				i, res.Acked, res.Failed, res.Attempted)
		}
		if !res.Crashed && cut.At < total {
			t.Fatalf("trial %d: budget %d of %d never fired", i, cut.At, total)
		}
		if res.Crashed && res.Victim == "" {
			t.Fatalf("trial %d: crashed but no node was killed: %+v", i, res)
		}
	}
	t.Logf("%d node-kill trials over %d victim WAL bytes, each re-ingested and rebooted; acked ⊆ recovered held in all", len(cuts), total)
}

// TestClusterCrashTrialDeterminism: the same crash offset over the
// same seeded stream produces the same outcome, twice.
func TestClusterCrashTrialDeterminism(t *testing.T) {
	run := func() (crashTrialResult, error) {
		return runCrashTrial(crashTrialConfig{
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
		run := func(workers int) crashTrialResult {
			res, err := runCrashTrial(crashTrialConfig{
				Dir:             t.TempDir(),
				Seed:            23,
				Records:         44,
				CrashAfterBytes: off,
				SegmentBytes:    1 << 11,
				Policy:          store.SyncAlways,
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
