package chaos

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"vibepm/internal/store"
)

// probeTrial runs cfg without a crash: it learns the trial's byte
// stream — its length and where each temp file sits in it.
func probeTrial(t *testing.T, cfg crashTrialConfig) crashTrialResult {
	t.Helper()
	cfg.Dir = t.TempDir()
	cfg.CrashAfterBytes = 0
	res, err := runCrashTrial(cfg)
	if err != nil {
		t.Fatalf("probe trial: %v", err)
	}
	if res.Acked != cfg.Records || res.Recovered != cfg.Records || res.Crashed {
		t.Fatalf("probe trial: %+v, want all %d records and no crash", res, cfg.Records)
	}
	return res
}

// cutAt runs cfg with the stream cut at off and the contract checked.
func cutAt(t *testing.T, cfg crashTrialConfig, off int64) crashTrialResult {
	t.Helper()
	cfg.Dir = t.TempDir()
	cfg.CrashAfterBytes = off
	res, err := runCrashTrial(cfg)
	if err != nil {
		t.Fatalf("crash at byte %d (policy %v, %d replay workers): %v", off, cfg.Policy, cfg.ReplayWorkers, err)
	}
	if res.Recovered != res.Acked {
		t.Fatalf("crash at byte %d: recovered %d != acked %d", off, res.Recovered, res.Acked)
	}
	return res
}

// TestCrashPointHarness is the durability headline: for hundreds of
// seeded crash offsets, the byte stream of a tiered store that
// checkpoints while it ingests — WAL segments, snapshot temps and
// partition temps in the order the store writes them — is cut
// mid-write, the store is reopened, and the contract runCrashTrial
// documents must hold. SweepCuts strides the offsets over the whole
// stream with seeded jitter, so frames are torn at headers, payloads,
// segment headers and rotation boundaries, and checkpoints die at
// every stage of a partition and a snapshot write.
func TestCrashPointHarness(t *testing.T) {
	base := crashTrialConfig{
		Seed:            99,
		Records:         96,
		CheckpointEvery: 12,
		Tiered:          true,
		SegmentBytes:    1 << 11, // ~22 frames per segment: crashes hit rotations too
	}
	probe := probeTrial(t, base)
	total := probe.Bytes

	cuts := SweepCuts(total, 200, 7)
	swept := len(cuts) - len(streamEdges(total))*len(sweepPolicies)
	// Around each snapshot temp, under every policy: nothing of it
	// written, its first byte, the byte before its rename (all but the
	// last byte down), and the whole of it (the snapshot lands and the
	// crash takes the next write instead).
	snapshots := 0
	for _, span := range probe.Temps {
		if span.Kind != KindSnapshotTemp {
			continue
		}
		snapshots++
		for _, at := range []int64{span.Start, span.Start + 1, span.End - 1, span.End} {
			for _, p := range sweepPolicies {
				cuts = append(cuts, Cut{At: at, Policy: p, ReplayWorkers: 4})
			}
		}
	}
	if want := base.Records / base.CheckpointEvery; snapshots != want {
		t.Fatalf("probe saw %d snapshot temps, want %d", snapshots, want)
	}

	const minPerKind = 20
	kinds := make(map[FileKind]int)
	for i, cut := range cuts {
		cfg := base
		cfg.Policy, cfg.ReplayWorkers = cut.Policy, cut.ReplayWorkers
		res := cutAt(t, cfg, cut.At)
		if !res.Crashed && cut.At < total {
			t.Fatalf("trial %d: budget %d of %d never fired", i, cut.At, total)
		}
		if res.Crashed && i < swept {
			kinds[res.CutKind]++
		}
	}
	for _, kind := range []FileKind{KindSegment, KindSnapshotTemp, KindPartitionTemp} {
		if kinds[kind] < minPerKind {
			t.Fatalf("only %d of %d swept cuts landed in a %v, want >= %d (all: %v)", kinds[kind], swept, kind, minPerKind, kinds)
		}
	}
	t.Logf("%d crash-point trials over %d bytes (swept cuts by file kind: %v), all recovered exactly", len(cuts), total, kinds)
}

// TestSweepCuts pins the offset plan every crash sweep runs: cuts in
// [1, total], at least n of them strided, every stream edge under every
// policy, a pure function of its arguments, and a stream shorter than
// n swept byte by byte rather than looping on a zero stride.
func TestSweepCuts(t *testing.T) {
	const n, seed = 200, 7
	for _, total := range []int64{32445, 50} {
		cuts := SweepCuts(total, n, seed)
		swept := len(cuts) - len(streamEdges(total))*len(sweepPolicies)
		if swept < min(n, int(total)) {
			t.Fatalf("total %d: %d strided cuts, want >= %d", total, swept, min(n, int(total)))
		}
		held := map[Cut]bool{}
		for i, c := range cuts {
			if c.At < 1 || c.At > total {
				t.Fatalf("total %d: cut %d at byte %d, outside [1, %d]", total, i, c.At, total)
			}
			held[c] = true
		}
		hdr := int64(len("VPMWAL1\n"))
		for _, edge := range []int64{1, hdr - 1, hdr, total - 1, total} {
			for _, p := range sweepPolicies {
				if !held[Cut{At: edge, Policy: p, ReplayWorkers: 4}] {
					t.Fatalf("total %d: no cut at byte %d under %v with 4 replay workers", total, edge, p)
				}
			}
		}
		if again := SweepCuts(total, n, seed); !reflect.DeepEqual(again, cuts) {
			t.Fatalf("total %d: same seed, different plan", total)
		}
		if total >= n {
			continue
		}
		// Under n bytes the stride is 1: one cut per byte, each at its
		// offset or jittered one past it.
		for i, c := range cuts[:total] {
			if c.At != int64(i+1) && c.At != int64(i+2) {
				t.Fatalf("stride-1 cut %d at byte %d, want %d or %d", i, c.At, i+1, i+2)
			}
		}
	}
}

// TestCompactionCrashSweep isolates the compactor: everything is acked
// first, then one tiered checkpoint runs, and the cut is driven through
// every region of its partition writes — first byte, headers, streams,
// the boundary between two partitions, the last byte. No cut may cost
// an acked record: recovery rides on the WAL the checkpoint had not yet
// retired, and the next checkpoint finishes the compaction.
func TestCompactionCrashSweep(t *testing.T) {
	base := crashTrialConfig{Seed: 42, Records: 96, CheckpointEvery: 96, Tiered: true, Policy: store.SyncNever}
	sweepPartitionTemps(t, base, 48)
}

// TestCompactionCrashFirstByte pins the harshest cut on another
// stream — the compactor dies having written one byte of its very
// first partition, so the cold tier gains nothing.
func TestCompactionCrashFirstByte(t *testing.T) {
	base := crashTrialConfig{Seed: 7, Records: 64, CheckpointEvery: 64, Tiered: true, Policy: store.SyncNever}
	sweepPartitionTemps(t, base, 1)
}

// sweepPartitionTemps cuts base's stream at n offsets spread over its
// partition temps, starting one byte into the first.
func sweepPartitionTemps(t *testing.T, base crashTrialConfig, n int64) {
	t.Helper()
	var lo, hi int64
	for _, span := range probeTrial(t, base).Temps {
		if span.Kind != KindPartitionTemp {
			continue
		}
		if lo == 0 {
			lo = span.Start
		}
		hi = span.End
	}
	if hi-lo < n {
		t.Fatalf("probe compacted %d partition bytes; a sweep of %d offsets would be vacuous", hi-lo, n)
	}
	for off := lo + 1; off < hi; off += (hi - lo) / n {
		res := cutAt(t, base, off)
		if !res.Crashed || res.CutKind != KindPartitionTemp {
			t.Fatalf("offset %d in [%d,%d): crashed=%v in a %v, want a partition temp cut", off, lo, hi, res.Crashed, res.CutKind)
		}
		if res.Acked != base.Records {
			t.Fatalf("offset %d: acked %d, want %d — the appends all precede the checkpoint", off, res.Acked, base.Records)
		}
	}
	t.Logf("partition temp bytes [%d,%d) of the stream cut every %d bytes from the first", lo, hi, (hi-lo)/n)
}

// TestCrashPointConcurrentAppend crashes the WAL while several
// goroutines append concurrently (exercising the group-commit path
// under the race detector) and checks the weaker—but still exact—
// concurrent contract: every acknowledged record is recovered, and
// every recovered record was attempted.
func TestCrashPointConcurrentAppend(t *testing.T) {
	const (
		writers    = 4
		perWriter  = 24
		crashAfter = 3000
	)
	for trial := 0; trial < 12; trial++ {
		dir := t.TempDir()
		budget := NewCrashBudget(int64(crashAfter + 512*trial))
		d, _, err := store.OpenDurable(dir, store.DurableOptions{
			WAL: store.WALOptions{
				SegmentBytes: 1 << 11,
				Policy:       store.SyncAlways,
				WrapFile:     budget.Wrap,
			},
		})
		if err != nil {
			t.Fatalf("trial %d: open: %v", trial, err)
		}
		var (
			mu        sync.Mutex
			acked     []*store.Record
			attempted []*store.Record
		)
		var wg sync.WaitGroup
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(trial)*100 + int64(w)))
				for i := 0; i < perWriter; i++ {
					rec := TrialRecord(rng, i)
					rec.PumpID = w*100 + i%16 // distinct pumps per writer
					mu.Lock()
					attempted = append(attempted, rec)
					mu.Unlock()
					stored, err := d.AddUnique(rec)
					if err != nil {
						return
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
		d.Abort()

		re, _, err := store.OpenDurable(dir, store.DurableOptions{})
		if err != nil {
			t.Fatalf("trial %d: reopen: %v", trial, err)
		}
		if err := CheckRecovered(re.Store(), acked, attempted); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		re.Abort()
	}
}

// TestRunCrashTrialCleanRun pins the no-crash path: every append acks
// and survives the checkpoints and both reopens.
func TestRunCrashTrialCleanRun(t *testing.T) {
	res := probeTrial(t, crashTrialConfig{Seed: 5, Records: 30, CheckpointEvery: 10, Policy: store.SyncNever})
	if len(res.Temps) != 3 {
		t.Fatalf("clean run wrote %d temps, want the 3 snapshots: %+v", len(res.Temps), res)
	}
}

// TestCrashWriterDeterminism pins that the same budget over the same
// byte stream cuts at the same offset and leaves identical bytes.
func TestCrashWriterDeterminism(t *testing.T) {
	cfg := crashTrialConfig{Seed: 11, Records: 40, CheckpointEvery: 16, SegmentBytes: 1 << 11, Policy: store.SyncAlways}
	a, b := cutAt(t, cfg, 1777), cutAt(t, cfg, 1777)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same crash offset, different outcomes: %+v vs %+v", a, b)
	}
	if !a.Crashed || a.Acked >= cfg.Records {
		t.Fatalf("crash at 1777 should cut the run short: %+v", a)
	}
}
