package store

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// replayWorkerCounts are the fan-outs every equivalence test runs at:
// sequential, a couple of explicit pools, more workers than frames,
// and the GOMAXPROCS default.
var replayWorkerCounts = []int{1, 2, 3, 8, 0}

// buildWAL writes recs through a real WAL (tiny segments so multi-
// segment replay is exercised) and returns the directory.
func buildWAL(t *testing.T, recs []*Record, segmentBytes int64) string {
	t.Helper()
	dir := t.TempDir()
	w, err := OpenWAL(dir, WALOptions{Policy: SyncNever, SegmentBytes: segmentBytes})
	if err != nil {
		t.Fatalf("open wal: %v", err)
	}
	for i, rec := range recs {
		if err := w.Append(rec); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close wal: %v", err)
	}
	return dir
}

// collectReplayWorkers replays dir at the given worker count and
// returns the records in arrival order.
func collectReplayWorkers(t *testing.T, dir string, workers int) ([]*Record, ReplayStats) {
	t.Helper()
	var recs []*Record
	stats, err := ReplayWALWorkers(dir, func(rec *Record) error {
		recs = append(recs, rec)
		return nil
	}, workers)
	if err != nil {
		t.Fatalf("replay (workers=%d): %v", workers, err)
	}
	return recs, stats
}

// assertSameReplay asserts two replays delivered identical records in
// identical order (byte-level, via the record codec) with identical
// stats.
func assertSameReplay(t *testing.T, wantRecs, gotRecs []*Record, wantStats, gotStats ReplayStats, label string) {
	t.Helper()
	if gotStats != wantStats {
		t.Fatalf("%s: stats = %+v, sequential = %+v", label, gotStats, wantStats)
	}
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("%s: %d records, sequential %d", label, len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		var wb, gb bytes.Buffer
		if err := EncodeRecord(&wb, wantRecs[i]); err != nil {
			t.Fatalf("encode sequential record %d: %v", i, err)
		}
		if err := EncodeRecord(&gb, gotRecs[i]); err != nil {
			t.Fatalf("%s: encode record %d: %v", label, i, err)
		}
		if !bytes.Equal(wb.Bytes(), gb.Bytes()) {
			t.Fatalf("%s: record %d differs from sequential replay", label, i)
		}
	}
}

// TestParallelReplayEquivalence proves the tentpole's core claim: the
// parallel replayer delivers byte-identical records, in identical
// order, with identical stats, across clean, torn, bit-flipped, and
// garbage-laden logs — at every worker count.
func TestParallelReplayEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	recs := make([]*Record, 700)
	for i := range recs {
		recs[i] = randomRecord(rng, i%13, float64(i), 16+rng.Intn(48))
	}

	dirs := map[string]string{
		"clean multi-segment": buildWAL(t, recs, 8<<10),
	}

	// Torn tail: chop the last segment mid-frame.
	torn := buildWAL(t, recs, 8<<10)
	segs, err := listSegments(torn)
	if err != nil || len(segs) < 2 {
		t.Fatalf("listSegments: %v (%d segs)", err, len(segs))
	}
	last := segmentPath(torn, segs[len(segs)-1])
	st, err := os.Stat(last)
	if err != nil {
		t.Fatalf("stat: %v", err)
	}
	if err := os.Truncate(last, st.Size()-7); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	dirs["torn tail"] = torn

	// Bit flip: corrupt one payload byte in the middle of an interior
	// segment — CRC catches it, everything behind it is discarded.
	flip := buildWAL(t, recs, 8<<10)
	segs, _ = listSegments(flip)
	mid := segmentPath(flip, segs[len(segs)/2])
	data, err := os.ReadFile(mid)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(mid, data, 0o644); err != nil {
		t.Fatalf("write: %v", err)
	}
	dirs["bit flip mid-segment"] = flip

	// Garbage: foreign and half-created files among real segments.
	garbage := buildWAL(t, recs[:200], 8<<10)
	for name, content := range map[string][]byte{
		"wal-99999990.seg": []byte("VPMWAL"),
		"wal-99999991.seg": {0xde, 0xad},
		"notes.txt":        []byte("not a segment"),
	} {
		if err := os.WriteFile(filepath.Join(garbage, name), content, 0o644); err != nil {
			t.Fatalf("plant %s: %v", name, err)
		}
	}
	dirs["garbage segments"] = garbage

	for label, dir := range dirs {
		t.Run(label, func(t *testing.T) {
			wantRecs, wantStats := collectReplayWorkers(t, dir, 1)
			for _, workers := range replayWorkerCounts[1:] {
				gotRecs, gotStats := collectReplayWorkers(t, dir, workers)
				assertSameReplay(t, wantRecs, gotRecs, wantStats, gotStats, labelWorkers(workers))
			}
		})
	}
}

func labelWorkers(w int) string {
	if w == 0 {
		return "workers=GOMAXPROCS"
	}
	return "workers=" + string(rune('0'+w))
}

// TestParallelReplayDuplicateKeyFirstWins pins the ordering property
// the pipeline exists to preserve: a log can legally hold two frames
// with the same (pump, day) key and different payloads (Durable logs
// before apply-time dedup), and the FIRST must win under AddUnique at
// every worker count — which only holds if apply runs in frame order.
func TestParallelReplayDuplicateKeyFirstWins(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	var recs []*Record
	for i := 0; i < 300; i++ {
		recs = append(recs, randomRecord(rng, i%5, float64(i%60), 24))
	}
	// Every 5th record duplicates an earlier key with fresh noise.
	for i := 4; i < len(recs); i += 5 {
		dup := randomRecord(rng, recs[i-4].PumpID, recs[i-4].ServiceDays, 24)
		recs[i] = dup
	}
	dir := buildWAL(t, recs, 16<<10)

	var wantSave []byte
	for _, workers := range replayWorkerCounts {
		m := NewMeasurements()
		if _, err := ReplayWALWorkers(dir, func(rec *Record) error {
			m.AddUnique(rec)
			return nil
		}, workers); err != nil {
			t.Fatalf("replay (workers=%d): %v", workers, err)
		}
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatalf("save: %v", err)
		}
		if wantSave == nil {
			wantSave = buf.Bytes()
			continue
		}
		if !bytes.Equal(buf.Bytes(), wantSave) {
			t.Fatalf("workers=%d: canonical Save differs from sequential (duplicate-key ordering lost)", workers)
		}
	}
}

// TestParallelReplayApplyError asserts an apply failure surfaces (and
// stops the replay) identically at every worker count.
func TestParallelReplayApplyError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]*Record, 100)
	for i := range recs {
		recs[i] = randomRecord(rng, i, float64(i), 8)
	}
	dir := buildWAL(t, recs, 0)
	sentinel := errors.New("apply boom")
	for _, workers := range replayWorkerCounts {
		applied := 0
		_, err := ReplayWALWorkers(dir, func(rec *Record) error {
			if applied == 42 {
				return sentinel
			}
			applied++
			return nil
		}, workers)
		if !errors.Is(err, sentinel) {
			t.Fatalf("workers=%d: err = %v, want sentinel", workers, err)
		}
		if applied != 42 {
			t.Fatalf("workers=%d: applied %d records before the error, want 42", workers, applied)
		}
	}
}

// TestParallelReplayRepairTruncation proves the repair pass truncates
// a damaged segment at exactly the offset the sequential replayer
// would pick, by recovering two copies of the same torn log — one
// sequential, one parallel — and comparing both the surviving file
// sizes and the recovered stores' canonical bytes.
func TestParallelReplayRepairTruncation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	recs := make([]*Record, 200)
	for i := range recs {
		recs[i] = randomRecord(rng, i%7, float64(i), 32)
	}
	build := func() string {
		dir := t.TempDir()
		d, _, err := OpenDurable(dir, DurableOptions{WAL: WALOptions{Policy: SyncNever, SegmentBytes: 16 << 10}})
		if err != nil {
			t.Fatalf("open durable: %v", err)
		}
		for _, rec := range recs {
			if _, err := d.AddUnique(rec); err != nil {
				t.Fatalf("add: %v", err)
			}
		}
		d.Abort() // no checkpoint: everything stays in the WAL
		// Flip a byte mid-log so recovery must repair.
		segs, err := listSegments(walDir(dir))
		if err != nil || len(segs) < 2 {
			t.Fatalf("listSegments: %v (%d segs)", err, len(segs))
		}
		victim := segmentPath(walDir(dir), segs[len(segs)/2])
		data, err := os.ReadFile(victim)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		data[len(data)*2/3] ^= 0x10
		if err := os.WriteFile(victim, data, 0o644); err != nil {
			t.Fatalf("write: %v", err)
		}
		return dir
	}

	segSizes := func(dir string) map[int]int64 {
		segs, err := listSegments(walDir(dir))
		if err != nil {
			t.Fatalf("listSegments: %v", err)
		}
		sizes := make(map[int]int64, len(segs))
		for _, seg := range segs {
			st, err := os.Stat(segmentPath(walDir(dir), seg))
			if err != nil {
				t.Fatalf("stat: %v", err)
			}
			sizes[seg] = st.Size()
		}
		return sizes
	}

	seqDir, parDir := build(), build()
	dseq, sseq, err := OpenDurable(seqDir, DurableOptions{ReplayWorkers: 1})
	if err != nil {
		t.Fatalf("sequential recovery: %v", err)
	}
	defer dseq.Abort()
	dpar, spar, err := OpenDurable(parDir, DurableOptions{ReplayWorkers: 4})
	if err != nil {
		t.Fatalf("parallel recovery: %v", err)
	}
	defer dpar.Abort()

	if sseq.Replay != spar.Replay {
		t.Fatalf("replay stats diverge: sequential %+v, parallel %+v", sseq.Replay, spar.Replay)
	}
	if !sseq.Replay.Truncated() {
		t.Fatal("expected the bit flip to truncate a segment")
	}
	wantSizes, gotSizes := segSizes(seqDir), segSizes(parDir)
	if len(wantSizes) != len(gotSizes) {
		t.Fatalf("segment counts diverge: %d vs %d", len(wantSizes), len(gotSizes))
	}
	for seg, want := range wantSizes {
		if got := gotSizes[seg]; got != want {
			t.Fatalf("segment %d repaired to %d bytes under parallel replay, sequential repaired to %d", seg, got, want)
		}
	}
	var sb, pb bytes.Buffer
	if err := dseq.Store().Save(&sb); err != nil {
		t.Fatalf("save sequential: %v", err)
	}
	if err := dpar.Store().Save(&pb); err != nil {
		t.Fatalf("save parallel: %v", err)
	}
	if !bytes.Equal(sb.Bytes(), pb.Bytes()) {
		t.Fatal("recovered stores differ between sequential and parallel repair")
	}
}

// TestLoadFileWorkersEquivalence proves the store-file loader
// reconstructs a byte-identical store at every worker count, for both
// a fresh store and one with pre-existing contents to replace.
func TestLoadFileWorkersEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	src := NewMeasurements()
	for i := 0; i < 900; i++ {
		src.AddUnique(randomRecord(rng, i%37, float64(i)*0.5, 8+rng.Intn(56)))
	}
	path := filepath.Join(t.TempDir(), "snapshot.bin")
	if err := src.SaveFile(path); err != nil {
		t.Fatalf("save: %v", err)
	}
	var want bytes.Buffer
	if err := src.Save(&want); err != nil {
		t.Fatalf("save source: %v", err)
	}

	for _, workers := range replayWorkerCounts {
		m := NewMeasurements()
		// Pre-existing contents must be replaced.
		m.AddUnique(randomRecord(rng, 9999, 1, 8))
		if err := m.loadFile(path, workers); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if m.Len() != src.Len() {
			t.Fatalf("workers=%d: %d records, want %d", workers, m.Len(), src.Len())
		}
		var got bytes.Buffer
		if err := m.Save(&got); err != nil {
			t.Fatalf("save: %v", err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("workers=%d: canonical Save differs from the saved store's", workers)
		}
	}
}

// TestLoadFileWorkersErrors asserts the loader refuses a damaged file
// with the same error at every worker count, and that a refused file
// leaves pre-existing contents in place.
func TestLoadFileWorkersErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	src := NewMeasurements()
	for i := 0; i < 40; i++ {
		src.AddUnique(randomRecord(rng, i%4, float64(i), 16))
	}
	var saved bytes.Buffer
	if err := src.Save(&saved); err != nil {
		t.Fatalf("save: %v", err)
	}
	base := saved.Bytes()
	frames := len(storeHeader) + 8

	cases := map[string]struct {
		mutate func([]byte) []byte
		want   string
	}{
		"bad header": {func(b []byte) []byte {
			b[0] ^= 0xFF
			return b
		}, ErrBadHeader.Error()},
		"format 1 header": {func(b []byte) []byte {
			b[len(storeHeader)-2] = '1'
			return b
		}, "format 1"},
		"truncated mid-record": {func(b []byte) []byte {
			return b[:len(b)-11]
		}, "record 39 of 40"},
		"a whole record short": {func(b []byte) []byte {
			return b[:len(b)-(len(b)-frames)/40]
		}, "holds 39 records"},
		"count too small": {func(b []byte) []byte {
			b[len(storeHeader)]--
			return b
		}, "holds 40 records"},
		"bad record magic": {func(b []byte) []byte {
			// The magic of the record in frame 20: its frame's CRC fails.
			b[frames+20*(len(b)-frames)/40+walHeaderLen] ^= 0xFF
			return b
		}, "record 20 of 40"},
	}
	for label, c := range cases {
		t.Run(label, func(t *testing.T) {
			data := c.mutate(append([]byte(nil), base...))
			var first string
			for _, workers := range replayWorkerCounts {
				m := NewMeasurements()
				m.AddUnique(randomRecord(rng, 9999, 1, 8))
				gen := m.GenerationTotal()
				err := m.load(bytes.NewReader(data), workers)
				if err == nil || !strings.Contains(err.Error(), c.want) {
					t.Fatalf("workers=%d: err = %v, want one containing %q", workers, err, c.want)
				}
				if first == "" {
					first = err.Error()
				}
				if err.Error() != first {
					t.Fatalf("workers=%d: error %q, sequential %q", workers, err, first)
				}
				if m.Len() != 1 || m.GenerationTotal() != gen || len(m.All(9999)) != 1 {
					t.Fatalf("workers=%d: a refused file changed the receiver (Len %d)", workers, m.Len())
				}
			}
		})
	}
}

// TestStoreFileEveryByteFlip is the property CRC framing buys a store
// file: whichever single byte of it is damaged — header, count, frame
// header, sample — Load refuses the file and leaves its receiver alone,
// and OpenDurable refuses a snapshot.bin so damaged, naming the record,
// before it has repaired (truncated) anything in the log.
func TestStoreFileEveryByteFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	dir := t.TempDir()
	d, _, err := OpenDurable(dir, DurableOptions{WAL: WALOptions{Policy: SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	add := func(pump int, day float64) {
		t.Helper()
		if _, err := d.AddUnique(randomRecord(rng, pump, day, 4)); err != nil {
			t.Fatal(err)
		}
	}
	const records = 6
	for i := 0; i < records; i++ {
		add(i%2, float64(i))
	}
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	add(0, 100) // the log holds something the snapshot does not
	d.Abort()

	snapPath := filepath.Join(dir, snapshotName)
	snap, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	frames := len(storeHeader) + 8
	frameLen := (len(snap) - frames) / records
	walFiles := func() map[string]string {
		out := map[string]string{}
		segs, err := listSegments(walDir(dir))
		if err != nil || len(segs) == 0 {
			t.Fatalf("listSegments: %v (%d segments)", err, len(segs))
		}
		for _, seg := range segs {
			b, err := os.ReadFile(segmentPath(walDir(dir), seg))
			if err != nil {
				t.Fatal(err)
			}
			out[segmentPath(walDir(dir), seg)] = string(b)
		}
		return out
	}
	walBefore := walFiles()

	m := NewMeasurements()
	m.Add(randomRecord(rng, 9999, 1, 4))
	gen := m.GenerationTotal()
	for off := range snap {
		for _, mask := range []byte{0x01, 0x80, 0xFF} {
			snap[off] ^= mask
			for _, workers := range []int{1, 2} {
				if err := m.load(bytes.NewReader(snap), workers); err == nil {
					t.Fatalf("offset %d ^ %#02x, workers=%d: a damaged file loaded", off, mask, workers)
				}
				if m.Len() != 1 || m.GenerationTotal() != gen {
					t.Fatalf("offset %d ^ %#02x, workers=%d: a refused file changed the receiver", off, mask, workers)
				}
			}
			snap[off] ^= mask
		}

		snap[off] ^= 0x10
		if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
			t.Fatal(err)
		}
		snap[off] ^= 0x10
		re, _, err := OpenDurable(dir, DurableOptions{})
		if err == nil {
			re.Abort()
			t.Fatalf("offset %d: OpenDurable accepted a damaged snapshot", off)
		}
		if off >= frames {
			if want := fmt.Sprintf("record %d of %d", (off-frames)/frameLen, records); !strings.Contains(err.Error(), want) {
				t.Fatalf("offset %d: err = %v, want one naming %s", off, err, want)
			}
		}
	}
	if after := walFiles(); !reflect.DeepEqual(after, walBefore) {
		t.Fatal("refusing the snapshot changed the log segments")
	}

	// Undamaged, the same directory recovers: snapshot plus the log's record.
	if err := os.WriteFile(snapPath, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	re, stats, err := OpenDurable(dir, DurableOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Abort()
	if stats.SnapshotRecords != records || re.Store().Len() != records+1 {
		t.Fatalf("recovered %d snapshot records and %d in all, want %d and %d", stats.SnapshotRecords, re.Store().Len(), records, records+1)
	}
}
