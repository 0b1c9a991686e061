package chaos

import (
	"reflect"
	"testing"

	"vibepm/internal/store"
)

// storeTrial is a store subject's schedule: writers concurrent writers
// stream records records each, checkpointing after every every-th ack;
// then an abort, a checkpoint that converges whatever the crash
// interrupted, and a second abort.
func storeTrial(seed int64, records, writers, every int) trialConfig {
	return trialConfig{open: openStore, seed: seed, schedule: []step{
		{kind: stepStream, records: records, writers: writers, every: every},
		{kind: stepAbort}, {kind: stepCheckpoint}, {kind: stepAbort},
	}}
}

// runCut runs cfg with the budget cut at byte off, in a fresh
// directory; a broken check fails t.
func runCut(t *testing.T, cfg trialConfig, off int64) trialResult {
	t.Helper()
	cfg.cut = off
	res, err := runTrial(t.TempDir(), cfg)
	if err != nil {
		t.Fatalf("cut at byte %d (policy %v, %d replay workers): %v", off, cfg.policy, cfg.replayWorkers, err)
	}
	return res
}

// probeTrial runs cfg uncut: it learns the trial's byte stream — its
// length and where each temp file sits in it.
func probeTrial(t *testing.T, cfg trialConfig) trialResult {
	t.Helper()
	res := runCut(t, cfg, 0)
	if res.Crashed || res.Acked == 0 || res.Acked != res.Attempted {
		t.Fatalf("probe trial: %+v, want every record acked and no crash", res)
	}
	heldExactly(t, res, 0)
	return res
}

// heldExactly asserts that every check of a one-writer trial found
// exactly the acked records: the checks prove acked ⊆ held, so equal
// counts are equal sets.
func heldExactly(t *testing.T, res trialResult, off int64) {
	t.Helper()
	for i, n := range res.Held {
		if n != res.Acked {
			t.Fatalf("cut at byte %d: check %d held %d records, %d acked", off, i, n, res.Acked)
		}
	}
}

// sweep runs cfg at every cut of a stream of total bytes, handing each
// result to each; a cut short of total must fire the budget.
func sweep(t *testing.T, cfg trialConfig, total int64, cuts []Cut, each func(i int, res trialResult)) {
	t.Helper()
	for i, cut := range cuts {
		cfg.policy, cfg.replayWorkers = cut.Policy, cut.ReplayWorkers
		res := runCut(t, cfg, cut.At)
		if !res.Crashed && cut.At < total {
			t.Fatalf("trial %d: budget %d of %d never fired", i, cut.At, total)
		}
		each(i, res)
	}
}

// TestCrashPointHarness is the durability headline: for hundreds of
// seeded crash offsets, the byte stream of a tiered store that
// checkpoints while it ingests — WAL segments, snapshot temps and
// partition temps in the order the store writes them — is cut
// mid-write, and every standing check must hold after the crash, the
// reopen, the converging checkpoint and a second reopen, with each
// check holding exactly the acked records. SweepCuts strides the
// offsets over the whole stream with seeded jitter, so frames are torn
// at headers, payloads, segment headers and rotation boundaries, and
// checkpoints die at every stage of a partition and a snapshot write.
func TestCrashPointHarness(t *testing.T) {
	base := storeTrial(99, 96, 1, 12)
	base.tiered = true
	base.segmentBytes = 1 << 11 // ~22 frames per segment: crashes hit rotations too
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
	if want := 96 / 12; snapshots != want {
		t.Fatalf("probe saw %d snapshot temps, want %d", snapshots, want)
	}

	const minPerKind = 20
	kinds := make(map[FileKind]int)
	sweep(t, base, total, cuts, func(i int, res trialResult) {
		heldExactly(t, res, cuts[i].At)
		if res.Crashed && i < swept {
			kinds[res.CutKind]++
		}
	})
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
	base := storeTrial(42, 96, 1, 96)
	base.tiered, base.policy = true, store.SyncNever
	sweepPartitionTemps(t, base, 48)
}

// TestCompactionCrashFirstByte pins the harshest cut on another
// stream — the compactor dies having written one byte of its very
// first partition, so the cold tier gains nothing.
func TestCompactionCrashFirstByte(t *testing.T) {
	base := storeTrial(7, 64, 1, 64)
	base.tiered, base.policy = true, store.SyncNever
	sweepPartitionTemps(t, base, 1)
}

// sweepPartitionTemps cuts base's stream at n offsets spread over its
// partition temps, starting one byte into the first.
func sweepPartitionTemps(t *testing.T, base trialConfig, n int64) {
	t.Helper()
	var lo, hi int64
	probe := probeTrial(t, base)
	for _, span := range probe.Temps {
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
		res := runCut(t, base, off)
		heldExactly(t, res, off)
		if !res.Crashed || res.CutKind != KindPartitionTemp {
			t.Fatalf("offset %d in [%d,%d): crashed=%v in a %v, want a partition temp cut", off, lo, hi, res.Crashed, res.CutKind)
		}
		if res.Acked != probe.Acked {
			t.Fatalf("offset %d: acked %d, want %d — the appends all precede the checkpoint", off, res.Acked, probe.Acked)
		}
	}
	t.Logf("partition temp bytes [%d,%d) of the stream cut every %d bytes from the first", lo, hi, (hi-lo)/n)
}

// TestCrashPointConcurrentAppend crashes the WAL while four writers
// append concurrently — the group-commit path under the race detector.
// A record whose frame reached the disk before another's fsync failed
// may be recovered unacked, so the checks hold acked ⊆ recovered ⊆
// attempted rather than equality.
func TestCrashPointConcurrentAppend(t *testing.T) {
	for trial := 0; trial < 12; trial++ {
		cfg := storeTrial(int64(trial)*100, 24, 4, 0)
		cfg.segmentBytes, cfg.policy = 1<<11, store.SyncAlways
		runCut(t, cfg, int64(3000+512*trial))
	}
}

// TestRunCrashTrialCleanRun pins the no-crash path with clean
// reboots: every append acks and survives the checkpoints, both closes
// and both reopens. The first close's snapshot is the fourth temp
// through the budget; the reopened store writes past it.
func TestRunCrashTrialCleanRun(t *testing.T) {
	cfg := storeTrial(5, 30, 1, 10)
	cfg.policy = store.SyncNever
	cfg.schedule[1].kind, cfg.schedule[3].kind = stepClose, stepClose
	if res := probeTrial(t, cfg); len(res.Temps) != 4 || len(res.Held) != 4 {
		t.Fatalf("clean run wrote %d temps and checked %d times, want 4 snapshots and all 4 steps: %+v", len(res.Temps), len(res.Held), res)
	}
}

// TestCrashWriterDeterminism pins that the same budget over the same
// byte stream cuts at the same offset and leaves identical bytes.
func TestCrashWriterDeterminism(t *testing.T) {
	cfg := storeTrial(11, 40, 1, 16)
	cfg.segmentBytes, cfg.policy = 1<<11, store.SyncAlways
	a, b := runCut(t, cfg, 1777), runCut(t, cfg, 1777)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same crash offset, different outcomes: %+v vs %+v", a, b)
	}
	heldExactly(t, a, 1777)
	if !a.Crashed || a.Acked >= 40 {
		t.Fatalf("crash at 1777 should cut the run short: %+v", a)
	}
}

// FuzzCrashTrial runs a small tiered store through the trial at any cut
// of its byte stream, under any fsync policy, replay parallelism and
// writer count: every standing check must hold after every step. With
// one writer the stream is a pure function of the seed, so a cut short
// of it must fire the budget and every check must hold exactly the
// acked records.
func FuzzCrashTrial(f *testing.F) {
	f.Add(int64(1), int64(700), uint8(0), uint8(4), uint8(0))
	f.Add(int64(2), int64(2500), uint8(1), uint8(1), uint8(3))
	f.Add(int64(3), int64(-9), uint8(2), uint8(0), uint8(1))
	f.Fuzz(func(t *testing.T, seed, cut int64, policy, workers, writers uint8) {
		cfg := storeTrial(seed, 32, 1+int(writers%4), 8)
		cfg.tiered, cfg.segmentBytes = true, 1<<10
		cfg.policy = sweepPolicies[int(policy)%len(sweepPolicies)]
		cfg.replayWorkers = int(workers % 5)
		total := probeTrial(t, cfg).Bytes
		off := 1 + (cut%total+total)%total
		res := runCut(t, cfg, off)
		if cfg.schedule[0].writers > 1 {
			return
		}
		heldExactly(t, res, off)
		if !res.Crashed && off < total {
			t.Fatalf("budget %d of %d never fired", off, total)
		}
	})
}
