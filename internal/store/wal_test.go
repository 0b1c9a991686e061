package store

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// collectReplay replays dir and returns the records in arrival order.
func collectReplay(t *testing.T, dir string) ([]*Record, ReplayStats) {
	t.Helper()
	var recs []*Record
	stats, err := ReplayWALWorkers(dir, func(rec *Record) error {
		recs = append(recs, rec)
		return nil
	}, 0)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, stats
}

func TestWALAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	var want []*Record
	for i := 0; i < 25; i++ {
		rec := randomRecord(rng, i%5, float64(i), 16)
		if err := w.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		want = append(want, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, stats := collectReplay(t, dir)
	if stats.Truncated() || stats.Records != len(want) {
		t.Fatalf("replay stats %+v, want %d clean records", stats, len(want))
	}
	for i := range want {
		if !recordsEqual(got[i], want[i]) {
			t.Fatalf("record %d differs after replay", i)
		}
	}
}

func TestWALRotationSpansSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Policy: SyncNever, SegmentBytes: 512})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	const n = 40
	for i := 0; i < n; i++ {
		if err := w.Append(randomRecord(rng, i, float64(i), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("tiny SegmentBytes produced only %d segments", len(segs))
	}
	recs, stats := collectReplay(t, dir)
	if len(recs) != n || stats.Truncated() {
		t.Fatalf("replayed %d of %d across %d segments, stats %+v", len(recs), n, len(segs), stats)
	}
}

func TestWALReplayTruncatesTornFrame(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 10; i++ {
		if err := w.Append(randomRecord(rng, 1, float64(i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := segmentPath(dir, segs[0])
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear the last frame: drop its final 7 bytes.
	if err := os.Truncate(path, info.Size()-7); err != nil {
		t.Fatal(err)
	}
	recs, stats := collectReplay(t, dir)
	if len(recs) != 9 {
		t.Fatalf("torn tail replayed %d records, want 9", len(recs))
	}
	if stats.Truncations != 1 || stats.TruncatedSegment != segs[0] {
		t.Fatalf("stats %+v", stats)
	}
}

func TestWALReplayTruncatesBitFlip(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 10; i++ {
		if err := w.Append(randomRecord(rng, 1, float64(i), 16)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := listSegments(dir)
	path := segmentPath(dir, segs[0])
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload bit roughly two thirds in: the CRC of that frame
	// must fail and replay must stop there, keeping only the frames
	// before it.
	b[len(b)*2/3] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	recs, stats := collectReplay(t, dir)
	if !stats.Truncated() {
		t.Fatalf("bit flip not detected: %+v", stats)
	}
	if len(recs) >= 10 || len(recs) == 0 {
		t.Fatalf("bit flip kept %d records", len(recs))
	}
}

// TestWALReplayArbitraryDirContents: empty dirs, missing dirs, garbage
// files, short headers and foreign bytes must never panic or error —
// they replay zero records or truncate, nothing else.
func TestWALReplayArbitraryDirContents(t *testing.T) {
	t.Run("missing dir", func(t *testing.T) {
		recs, stats := collectReplay(t, filepath.Join(t.TempDir(), "nope"))
		if len(recs) != 0 || stats.Segments != 0 {
			t.Fatalf("recs %d stats %+v", len(recs), stats)
		}
	})
	t.Run("empty dir", func(t *testing.T) {
		recs, _ := collectReplay(t, t.TempDir())
		if len(recs) != 0 {
			t.Fatal("records from an empty dir")
		}
	})
	t.Run("garbage segments", func(t *testing.T) {
		dir := t.TempDir()
		cases := map[string][]byte{
			"wal-00000001.seg": nil,                                                         // empty file
			"wal-00000002.seg": []byte("VPMWAL"),                                            // short header
			"wal-00000003.seg": []byte("XXXXXXXXgarbage..."),                                // wrong header
			"wal-00000004.seg": append(append([]byte{}, walSegHeader...), 0xde, 0xad, 0xbe), // torn first frame
			"notes.txt":        []byte("not a segment"),
		}
		for name, content := range cases {
			if err := os.WriteFile(filepath.Join(dir, name), content, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		recs, stats := collectReplay(t, dir)
		if len(recs) != 0 {
			t.Fatalf("replayed %d records from garbage", len(recs))
		}
		if stats.Segments != 4 || stats.Truncations != 4 {
			t.Fatalf("stats %+v", stats)
		}
	})
	t.Run("open durable over garbage", func(t *testing.T) {
		dir := t.TempDir()
		wdir := walDir(dir)
		if err := os.MkdirAll(wdir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(wdir, "wal-00000009.seg"), []byte("????"), 0o644); err != nil {
			t.Fatal(err)
		}
		d, _, err := OpenDurable(dir, DurableOptions{})
		if err != nil {
			t.Fatalf("open over garbage: %v", err)
		}
		d.Abort()
	})
}

// TestWALStickyFailure: after one failed append, every later append
// fails too — required for the acked-prefix guarantee.
func TestWALStickyFailure(t *testing.T) {
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	if err := w.Append(randomRecord(rng, 1, 1, 8)); err != nil {
		t.Fatal(err)
	}
	// Simulate the process losing the file: close the segment under the
	// WAL's feet so the next write fails.
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
	if err := w.Append(randomRecord(rng, 1, 2, 8)); err == nil {
		t.Fatal("append to a closed segment succeeded")
	}
	for i := 0; i < 3; i++ {
		if err := w.Append(randomRecord(rng, 1, float64(3+i), 8)); err == nil {
			t.Fatal("failed WAL accepted a later append")
		}
	}
	w.abort()
}

// TestSaveFileAtomic: SaveFile goes through a temp file + rename, so a
// reader never observes a half-written snapshot and no temp litter
// outlives the call.
func TestSaveFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "snapshot.bin")
	rng := rand.New(rand.NewSource(9))

	m := NewMeasurements()
	m.Add(randomRecord(rng, 1, 1, 16))
	if err := m.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	// Overwrite with a bigger store: the rename must replace wholesale.
	m2 := NewMeasurements()
	for i := 0; i < 10; i++ {
		m2.Add(randomRecord(rng, i, float64(i), 16))
	}
	if err := m2.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got := NewMeasurements()
	if err := got.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	if got.Len() != 10 {
		t.Fatalf("loaded %d records, want 10", got.Len())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
	if len(entries) != 1 {
		t.Fatalf("dir has %d entries, want just the snapshot", len(entries))
	}
}

// TestDurableReplayPropertyRoundTrip is the satellite property test:
// across randomized pump counts, shard-crossing ids and duplicate
// AddUnique replays, snapshot + WAL replay must reconstruct a store
// whose canonical Save encoding is byte-for-byte the in-memory one.
func TestDurableReplayPropertyRoundTrip(t *testing.T) {
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		dir := t.TempDir()
		d, _, err := OpenDurable(dir, DurableOptions{WAL: WALOptions{Policy: SyncNever, SegmentBytes: 4096}})
		if err != nil {
			t.Fatal(err)
		}
		pumps := 1 + rng.Intn(40) // crosses all 16 shards when > 16
		n := 1 + rng.Intn(120)
		var inserted []*Record
		for i := 0; i < n; i++ {
			rec := randomRecord(rng, rng.Intn(pumps), float64(rng.Intn(200))*0.5, 1+rng.Intn(24))
			stored, err := d.AddUnique(rec)
			if err != nil {
				t.Fatalf("trial %d append %d: %v", trial, i, err)
			}
			if stored {
				inserted = append(inserted, rec)
			}
			// Sometimes replay the exact same record again — the log
			// records the duplicate frame but recovery must dedupe it.
			if rng.Intn(4) == 0 {
				if again, _ := d.AddUnique(rec); again {
					t.Fatalf("trial %d: duplicate AddUnique stored twice", trial)
				}
			}
		}
		// Half the trials checkpoint mid-stream so recovery exercises
		// snapshot + overlapping segments, not just a pure log replay.
		if trial%2 == 0 && len(inserted) > 0 {
			if _, err := d.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			extra := randomRecord(rng, rng.Intn(pumps), 1e6, 8)
			if stored, err := d.AddUnique(extra); err != nil {
				t.Fatal(err)
			} else if stored {
				inserted = append(inserted, extra)
			}
		}
		var want bytes.Buffer
		if err := d.Store().Save(&want); err != nil {
			t.Fatal(err)
		}
		d.Abort()

		re, _, err := OpenDurable(dir, DurableOptions{})
		if err != nil {
			t.Fatalf("trial %d reopen: %v", trial, err)
		}
		var got bytes.Buffer
		if err := re.Store().Save(&got); err != nil {
			t.Fatal(err)
		}
		re.Abort()
		if re.Store().Len() != len(inserted) {
			t.Fatalf("trial %d: recovered %d records, inserted %d", trial, re.Store().Len(), len(inserted))
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("trial %d: recovered store differs byte-for-byte", trial)
		}
	}
}

// TestDurableConcurrentIngestDuringCheckpoint hammers Add across every
// shard while checkpoints loop as fast as they can, then verifies no
// acked record is lost, generation counters saw every write, and the
// trend pyramid caches stay consistent with the recovered data.
func TestDurableConcurrentIngestDuringCheckpoint(t *testing.T) {
	dir := t.TempDir()
	d, _, err := OpenDurable(dir, DurableOptions{WAL: WALOptions{Policy: SyncNever, SegmentBytes: 1 << 14}})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers   = 8
		perWriter = 60
	)
	stopCkpt := make(chan struct{})
	var ckptWg sync.WaitGroup
	ckptWg.Add(1)
	go func() {
		defer ckptWg.Done()
		for {
			select {
			case <-stopCkpt:
				return
			default:
			}
			if _, err := d.Checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 100))
			for i := 0; i < perWriter; i++ {
				// pump ids stride the shard space; times are unique per
				// writer so every Add lands.
				rec := randomRecord(rng, w*3+i%16, float64(w*1000+i), 8)
				if _, err := d.AddUnique(rec); err != nil {
					t.Errorf("writer %d add %d: %v", w, i, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stopCkpt)
	ckptWg.Wait()
	if t.Failed() {
		return
	}

	total := writers * perWriter
	if d.Store().Len() != total {
		t.Fatalf("store holds %d records, want %d", d.Store().Len(), total)
	}
	if gen := d.Store().GenerationTotal(); gen < uint64(total) {
		t.Fatalf("generation total %d < %d writes", gen, total)
	}
	// Pyramid/trend caches must serve the post-ingest state: a pyramid
	// built now covers every record of its pump, and a second request is
	// a cache hit at the same generation (the series is quiescent).
	cache := NewTrendCache()
	rms := func(rec *Record) float64 { return float64(rec.PumpID) }
	for _, id := range d.Store().Pumps() {
		recs := d.Store().All(id)
		pyr, gen := cache.Pyramid(d.Store(), id, "test", rms)
		if pyr.Len() != len(recs) {
			t.Fatalf("pump %d pyramid covers %d points, want %d", id, pyr.Len(), len(recs))
		}
		again, gen2 := cache.Pyramid(d.Store(), id, "test", rms)
		if again != pyr || gen2 != gen {
			t.Fatalf("pump %d: quiescent series rebuilt its pyramid (gen %d vs %d)", id, gen, gen2)
		}
	}

	// Final close + reopen: everything survives, snapshot-only.
	var want bytes.Buffer
	if err := d.Store().Save(&want); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	re, rstats, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Abort()
	if re.Store().Len() != total {
		t.Fatalf("recovered %d records, want %d", re.Store().Len(), total)
	}
	if rstats.Replayed != 0 {
		t.Fatalf("clean close still replayed %d records", rstats.Replayed)
	}
	var got bytes.Buffer
	if err := re.Store().Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("recovered store differs after concurrent ingest + checkpoints")
	}
}

// TestDurableRetiresSegments: checkpointing must actually delete
// covered segments, or the log grows forever.
func TestDurableRetiresSegments(t *testing.T) {
	dir := t.TempDir()
	d, _, err := OpenDurable(dir, DurableOptions{WAL: WALOptions{Policy: SyncNever, SegmentBytes: 512}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 50; i++ {
		if _, err := d.AddUnique(randomRecord(rng, i%4, float64(i), 32)); err != nil {
			t.Fatal(err)
		}
	}
	before, _ := listSegments(walDir(dir))
	if len(before) < 3 {
		t.Fatalf("expected several segments before checkpoint, got %d", len(before))
	}
	stats, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if stats.SegmentsRetired == 0 {
		t.Fatal("checkpoint retired nothing")
	}
	after, _ := listSegments(walDir(dir))
	if len(after) >= len(before) {
		t.Fatalf("segments before %d, after %d", len(before), len(after))
	}
	d.Abort()
}

// TestOversizedRecordRejectedBeforeAck pins the size-bound contract:
// a record the codec cannot recover must be refused at append time —
// never acked and then dropped (with everything behind it in the
// segment) as "implausible" at replay.
func TestOversizedRecordRejectedBeforeAck(t *testing.T) {
	big := &Record{PumpID: 1, ServiceDays: 1, SampleRateHz: 4000, ScaleG: 0.01}
	for axis := range big.Raw {
		big.Raw[axis] = make([]int16, MaxSamplesPerAxis+1)
	}
	if err := EncodeRecord(io.Discard, big); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("EncodeRecord err = %v, want ErrRecordTooLarge", err)
	}

	dir := t.TempDir()
	d, _, err := OpenDurable(dir, DurableOptions{WAL: WALOptions{Policy: SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddUnique(big); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("AddUnique err = %v, want ErrRecordTooLarge", err)
	} else if errors.Is(err, ErrWALFailed) {
		t.Fatalf("oversized record latched the WAL failed: %v", err)
	}
	if d.Store().Len() != 0 {
		t.Fatalf("oversized record applied: store holds %d records", d.Store().Len())
	}
	// The rejection is per-record, not sticky: later appends both ack
	// and survive a crash.
	rng := rand.New(rand.NewSource(77))
	good := randomRecord(rng, 2, 3, 16)
	if _, err := d.AddUnique(good); err != nil {
		t.Fatalf("append after rejection: %v", err)
	}
	d.Abort()
	re, rstats, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Abort()
	if re.Store().Len() != 1 || rstats.Replayed != 1 || rstats.Replay.Truncated() {
		t.Fatalf("recovered %d records (replayed %d, stats %+v), want the 1 acked record",
			re.Store().Len(), rstats.Replayed, rstats.Replay)
	}
}

// TestDurableAddDedupesSameKey: Durable stores only unique keys, and
// A durable write applies with the same idempotent insert recovery
// uses — a duplicate-keyed write may not create state that a crash would
// silently collapse.
func TestDurableAddDedupesSameKey(t *testing.T) {
	dir := t.TempDir()
	d, _, err := OpenDurable(dir, DurableOptions{WAL: WALOptions{Policy: SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	if _, err := d.AddUnique(randomRecord(rng, 1, 5, 16)); err != nil {
		t.Fatal(err)
	}
	// Same (pump, service-days) key, different samples.
	if _, err := d.AddUnique(randomRecord(rng, 1, 5, 16)); err != nil {
		t.Fatal(err)
	}
	if d.Store().Len() != 1 {
		t.Fatalf("duplicate-keyed write applied twice: store holds %d records", d.Store().Len())
	}
	var want bytes.Buffer
	if err := d.Store().Save(&want); err != nil {
		t.Fatal(err)
	}
	d.Abort() // crash: replay sees both frames, dedupes the second
	re, _, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Abort()
	var got bytes.Buffer
	if err := re.Store().Save(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want.Bytes(), got.Bytes()) {
		t.Fatal("recovered store differs from the acked one after duplicate-keyed Adds")
	}
}

// TestWALCloseAcksRacingAppends: a SyncAlways append racing a clean
// Close must resolve consistently — acked iff its frame is in the log.
// Close performs the final sync before waiters can observe closure, so
// a frame that made it into the segment is acknowledged, not failed
// spuriously after its bytes became durable.
func TestWALCloseAcksRacingAppends(t *testing.T) {
	for trial := 0; trial < 5; trial++ {
		dir := t.TempDir()
		w, err := OpenWAL(dir, WALOptions{Policy: SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		const writers, perWriter = 4, 25
		acked := make([]atomic.Bool, writers*perWriter)
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(trial*writers + g)))
				for i := 0; i < perWriter; i++ {
					id := g*perWriter + i
					err := w.Append(randomRecord(rng, g, float64(id), 8))
					switch {
					case err == nil:
						acked[id].Store(true)
					case !errors.Is(err, ErrWALFailed):
						t.Errorf("append %d: unexpected error %v", id, err)
					}
				}
			}(g)
		}
		// Close races the appenders at a different point each trial.
		time.Sleep(time.Duration(trial) * 200 * time.Microsecond)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		replayed := make(map[int]bool)
		recs, _ := collectReplay(t, dir)
		for _, r := range recs {
			replayed[int(r.ServiceDays)] = true
		}
		for id := range acked {
			if acked[id].Load() != replayed[id] {
				t.Fatalf("trial %d: record %d acked=%v but replayed=%v",
					trial, id, acked[id].Load(), replayed[id])
			}
		}
	}
}
