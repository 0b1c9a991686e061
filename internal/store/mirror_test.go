package store

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

// shipWAL opens a WAL whose OnFrame/OnSeal hooks ship into a mirror at
// mdir — the follower wiring internal/cluster uses, reduced to its
// store-level essentials.
func shipWAL(t *testing.T, dir, mdir string, opts WALOptions) (*WAL, *SegmentMirror) {
	t.Helper()
	m, err := NewSegmentMirror(mdir)
	if err != nil {
		t.Fatal(err)
	}
	opts.OnFrame = func(seg int, frame []byte) error { return m.AppendFrame(seg, frame) }
	opts.OnSeal = func(seg int) { _ = m.Seal(seg) }
	w, err := OpenWAL(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	return w, m
}

// TestMirrorByteIdenticalToPrimary: after shipping an append stream
// across several rotations, every mirror segment file is byte-for-byte
// the primary's — the property that lets promotion reuse ReplayWAL
// unchanged.
func TestMirrorByteIdenticalToPrimary(t *testing.T) {
	dir, mdir := t.TempDir(), t.TempDir()
	w, m := shipWAL(t, dir, mdir, WALOptions{Policy: SyncNever, SegmentBytes: 512})
	rng := rand.New(rand.NewSource(21))
	const n = 40
	for i := 0; i < n; i++ {
		if err := w.Append(randomRecord(rng, i%6, float64(i), 32)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 3 {
		t.Fatalf("expected several segments, got %d", len(segs))
	}
	for _, seg := range segs {
		want, err := os.ReadFile(segmentPath(dir, seg))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(segmentPath(mdir, seg))
		if err != nil {
			t.Fatalf("mirror is missing segment %d: %v", seg, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("mirror segment %d differs from primary (%d vs %d bytes)", seg, len(got), len(want))
		}
	}
	if m.FramesShipped() != n {
		t.Fatalf("mirror shipped %d frames, appended %d", m.FramesShipped(), n)
	}
	recs, stats := collectReplay(t, mdir)
	if len(recs) != n || stats.Truncated() {
		t.Fatalf("mirror replay: %d records, stats %+v", len(recs), stats)
	}
}

// TestMirrorEmptyRotatedSegment: a segment rotated before any append
// reaches it is header-only on the primary and absent from the mirror;
// replaying the mirror yields the later record and no damage report.
func TestMirrorEmptyRotatedSegment(t *testing.T) {
	dir, mdir := t.TempDir(), t.TempDir()
	w, m := shipWAL(t, dir, mdir, WALOptions{Policy: SyncNever})
	// Rotate the fresh, empty first segment away, then append into the
	// second.
	if _, err := w.Rotate(); err != nil {
		t.Fatal(err)
	}
	rec := randomRecord(rand.New(rand.NewSource(5)), 1, 1, 16)
	if err := w.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	// The empty segment never produced a frame, so the mirror has no
	// copy of it — and must replay cleanly without one.
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 2 {
		t.Fatalf("want 2 segments, got %v", segs)
	}
	empty := segmentPath(dir, segs[0])
	if st, err := os.Stat(empty); err != nil || st.Size() != int64(len(walSegHeader)) {
		t.Fatalf("first segment not header-only: %v %v", st, err)
	}
	if msegs, err := listSegments(mdir); err != nil || len(msegs) != 1 || msegs[0] != segs[1] {
		t.Fatalf("mirror holds segments %v (%v), want only %d", msegs, err, segs[1])
	}
	recs, stats := collectReplay(t, mdir)
	if len(recs) != 1 || stats.Truncated() {
		t.Fatalf("replay with empty segment: %d records, stats %+v", len(recs), stats)
	}
	if !recordsEqual(recs[0], rec) {
		t.Fatal("record differs after replicating an empty rotated segment")
	}
}

// TestMirrorTornFinalFrame: a mirror whose last frame is cut mid-byte
// (the shipped prefix of an append the primary died inside) replays
// its intact prefix and reports the truncation — exactly the primary's
// own recovery semantics.
func TestMirrorTornFinalFrame(t *testing.T) {
	dir, mdir := t.TempDir(), t.TempDir()
	w, m := shipWAL(t, dir, mdir, WALOptions{Policy: SyncNever})
	rng := rand.New(rand.NewSource(8))
	var want []*Record
	for i := 0; i < 6; i++ {
		rec := randomRecord(rng, i, float64(i), 16)
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(mdir)
	if err != nil {
		t.Fatal(err)
	}
	path := segmentPath(mdir, segs[len(segs)-1])
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	recs, stats := collectReplay(t, mdir)
	if !stats.Truncated() {
		t.Fatalf("torn final frame not reported: %+v", stats)
	}
	if len(recs) != len(want)-1 {
		t.Fatalf("replayed %d records, want the %d intact ones", len(recs), len(want)-1)
	}
	for i := range recs {
		if !recordsEqual(recs[i], want[i]) {
			t.Fatalf("record %d differs", i)
		}
	}
}

// TestMirrorIdempotentReShip: applying the same shipped segments twice
// — a promotion retried over a mirror it already replayed — changes
// nothing: the AddUnique apply dedupes a double replay.
func TestMirrorIdempotentReShip(t *testing.T) {
	dir, mdir := t.TempDir(), t.TempDir()
	w, m := shipWAL(t, dir, mdir, WALOptions{Policy: SyncNever, SegmentBytes: 512})
	rng := rand.New(rand.NewSource(13))
	const n = 20
	for i := 0; i < n; i++ {
		if err := w.Append(randomRecord(rng, i%4, float64(i), 32)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	apply := func(dst *Measurements) ReplayStats {
		stats, err := ReplayWAL(mdir, func(rec *Record) error {
			dst.AddUnique(rec)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	got := NewMeasurements()
	apply(got)
	var once bytes.Buffer
	if err := got.Save(&once); err != nil {
		t.Fatal(err)
	}

	// Replay the whole mirror again into the same store.
	apply(got)
	var twice bytes.Buffer
	if err := got.Save(&twice); err != nil {
		t.Fatal(err)
	}
	if got.Len() != n {
		t.Fatalf("after re-ship + double replay: %d records, want %d", got.Len(), n)
	}
	if !bytes.Equal(once.Bytes(), twice.Bytes()) {
		t.Fatal("re-shipping an applied segment changed the store")
	}
}

// TestOnFrameErrorWedgesWAL: a failed ship fails the append before the
// ack and sticks, like any local write failure — the sync-replication
// contract (never ack what the follower refused).
func TestOnFrameErrorWedgesWAL(t *testing.T) {
	dir := t.TempDir()
	shipErr := errors.New("follower gone")
	fail := false
	w, err := OpenWAL(dir, WALOptions{
		Policy: SyncNever,
		OnFrame: func(int, []byte) error {
			if fail {
				return shipErr
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	if err := w.Append(randomRecord(rng, 1, 1, 16)); err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := w.Append(randomRecord(rng, 1, 2, 16)); !errors.Is(err, shipErr) {
		t.Fatalf("append with failing ship: err=%v, want wrapped ship error", err)
	}
	fail = false
	if err := w.Append(randomRecord(rng, 1, 3, 16)); !errors.Is(err, ErrWALFailed) {
		t.Fatalf("append after ship failure: err=%v, want sticky ErrWALFailed", err)
	}
	w.Close()
	// Only the pre-failure record replays; the failed frame's local
	// bytes are behind the wedge and were never acked.
	recs, _ := collectReplay(t, dir)
	if len(recs) > 2 {
		t.Fatalf("replayed %d records after wedged ship", len(recs))
	}
}

// TestMirrorAppendRecordMatchesShippedFrames: the bootstrap path's
// synthetic frames are indistinguishable from shipped ones — same
// segment file bytes for the same records.
func TestMirrorAppendRecordMatchesShippedFrames(t *testing.T) {
	dir, mdir := t.TempDir(), t.TempDir()
	w, m := shipWAL(t, dir, mdir, WALOptions{Policy: SyncNever})
	rng := rand.New(rand.NewSource(31))
	recs := make([]*Record, 5)
	for i := range recs {
		recs[i] = randomRecord(rng, i, float64(i), 16)
		if err := w.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	seg := w.Segment()
	boot, err := NewSegmentMirror(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := boot.AppendRecord(seg, rec); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	m.Close()
	boot.Close()
	want, err := os.ReadFile(segmentPath(mdir, seg))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(segmentPath(boot.Dir(), seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("bootstrap frames differ from shipped frames (%d vs %d bytes)", len(got), len(want))
	}
}

// TestMirrorAppendRecordsMatchesPerRecord proves the batched
// bootstrap writes byte-identical segment files to the per-record
// path — the failover batching is a syscall optimization, invisible
// to replay — including across the internal ~1 MiB flush boundary.
func TestMirrorAppendRecordsMatchesPerRecord(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	// Big records so the batch crosses mirrorBatchBytes and flushes
	// more than once: ~6 KiB per frame x 400 ≈ 2.4 MiB.
	recs := make([]*Record, 400)
	for i := range recs {
		recs[i] = randomRecord(rng, i%9, float64(i), 1024)
	}
	const seg = 3

	one, err := NewSegmentMirror(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := one.AppendRecord(seg, rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := one.Close(); err != nil {
		t.Fatal(err)
	}

	batch, err := NewSegmentMirror(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	n, err := batch.AppendRecords(seg, recs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(recs) {
		t.Fatalf("AppendRecords appended %d, want %d", n, len(recs))
	}
	if batch.FramesShipped() != one.FramesShipped() || batch.BytesShipped() != one.BytesShipped() {
		t.Fatalf("counters diverge: batch %d/%d, per-record %d/%d",
			batch.FramesShipped(), batch.BytesShipped(), one.FramesShipped(), one.BytesShipped())
	}
	if err := batch.Close(); err != nil {
		t.Fatal(err)
	}

	want, err := os.ReadFile(segmentPath(one.Dir(), seg))
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(segmentPath(batch.Dir(), seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batched frames differ from per-record frames (%d vs %d bytes)", len(got), len(want))
	}

	// And the batched mirror replays to exactly the source records.
	var replayed int
	if _, err := ReplayWALWorkers(batch.Dir(), func(*Record) error {
		replayed++
		return nil
	}, 4); err != nil {
		t.Fatal(err)
	}
	if replayed != len(recs) {
		t.Fatalf("replayed %d records from batched mirror, want %d", replayed, len(recs))
	}
}

// TestMirrorClosedRejectsAppends pins the closed-mirror contract.
func TestMirrorClosedRejectsAppends(t *testing.T) {
	m, err := NewSegmentMirror(filepath.Join(t.TempDir(), "m"))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if err := m.AppendFrame(1, []byte{1}); !errors.Is(err, ErrMirrorClosed) {
		t.Fatalf("append to closed mirror: %v", err)
	}
	if err := m.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}
