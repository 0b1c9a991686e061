package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// The write-ahead log makes ingestion durable between snapshots: every
// Add/AddUnique appends a framed record to the log before the write is
// acknowledged, so a crash can lose at most the writes that were never
// acked. The log is segmented — fixed-header files named
// wal-NNNNNNNN.seg — and each frame is length-prefixed and protected by
// CRC32C, so recovery can replay intact records and stop exactly at the
// first torn or corrupt frame. The frame is also how a record sits in a
// store file (Measurements.Save), and replayFrames (replay.go) reads
// both streams back.
//
// Frame layout (little-endian):
//
//	offset  size  field
//	0       4     frame magic "VWLF"
//	4       4     payload length n
//	8       4     CRC32C (Castagnoli) of the payload
//	12      n     payload — one EncodeRecord-format record
//
// A frame is written with a single Write call, so a torn write (power
// loss, crash injection) leaves a strict prefix of one frame on disk;
// the length prefix then runs past EOF or the CRC fails, and replay
// truncates there.
const (
	walFrameMagic = uint32(0x56574C46) // "VWLF"
	walHeaderLen  = 12
	walSegPrefix  = "wal-"
	walSegSuffix  = ".seg"
	// maxWALPayload bounds decoded allocations against corrupt length
	// prefixes: the largest legal record (3 axes × 1 Mi samples × 2
	// bytes + header) fits with headroom.
	maxWALPayload = 8 << 20
)

// walSegHeader identifies a segment file. A file shorter than this, or
// starting with different bytes, stops replay without panicking.
var walSegHeader = []byte("VPMWAL1\n")

// SyncPolicy selects when an acknowledged append is durable.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every append acknowledges. Writers that
	// arrive while a sync is in flight share the next one (group
	// commit), so the fsync cost amortizes across concurrent ingest.
	SyncAlways SyncPolicy = iota
	// SyncInterval leaves fsync to the periodic Sync calls issued by
	// the Durable checkpoint loop; a crash can lose up to one interval
	// of acked appends, never more.
	SyncInterval
	// SyncNever never fsyncs explicitly; durability rides on the OS
	// page cache and the checkpoint snapshots.
	SyncNever
)

// ParseSyncPolicy maps the -fsync flag values to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("store: unknown fsync policy %q (want always, interval or never)", s)
}

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	default:
		return "never"
	}
}

// SegmentFile is the slice of *os.File a durable store writes through
// — log segments and the temps of writeFileAtomic alike. The
// indirection exists for fault injection: a chaos CrashWriter wraps the
// real file and cuts writes off at an exact byte offset.
type SegmentFile interface {
	io.Writer
	Sync() error
	Close() error
}

// WALOptions parameterizes a write-ahead log.
type WALOptions struct {
	// SegmentBytes rotates to a fresh segment once the current one
	// would exceed this size (default 64 MiB).
	SegmentBytes int64
	// Policy selects the fsync policy (default SyncAlways).
	Policy SyncPolicy
	// WrapFile, when non-nil, interposes on every file the log's owner
	// writes: each segment file the WAL opens and, when the owner is a
	// Durable, the checkpoint's snapshot temp and partition temps too.
	// It is the store's one fault-injection seam; path tells the file
	// kinds apart. Replication mirrors are outside it: a follower write
	// fault wedges its primary, and what that should cost is an
	// availability decision, not a crash-safety one.
	WrapFile func(path string, f *os.File) SegmentFile
	// OnFrame, when non-nil, observes every frame (header + payload)
	// right after it reached the current segment file, with the segment
	// index it landed in. It is called with the append lock held and
	// before the append is acknowledged; a non-nil return fails the
	// append and wedges the log (sticky), exactly like a local write
	// failure. This is the seam synchronous segment replication hangs
	// off: an append is never acked unless the follower accepted the
	// frame too. The byte slice is pooled and only valid for the call.
	OnFrame func(seg int, frame []byte) error
	// OnSeal, when non-nil, observes every segment seal (rotation and
	// clean close) with the sealed segment's index, after its bytes are
	// synced and the file is closed. Called with internal locks held:
	// implementations must not call back into the WAL.
	OnSeal func(seg int)
}

func (o WALOptions) withDefaults() WALOptions {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 64 << 20
	}
	return o
}

// ErrWALFailed is wrapped by every append after a write or sync error.
// A WAL that failed once stays failed: bytes after a torn frame would
// be invisible to recovery, so acknowledging later appends would break
// the acked-prefix guarantee.
var ErrWALFailed = errors.New("store: wal failed")

// WAL is a segmented write-ahead log of store records. It is safe for
// concurrent use; appends are serialized internally and fsyncs are
// group-committed.
//
// Lock ordering: mu and syncMu are never held together. Append
// sequence numbers are assigned under mu (so sequence order equals
// file order) and read atomically by the sync path.
type WAL struct {
	dir  string
	opts WALOptions

	mu       sync.Mutex // serializes writes, rotation, close
	f        SegmentFile
	seg      int   // current segment index
	segBytes int64 // bytes written to the current segment
	firstSeg int   // lowest live segment index (for Retire bookkeeping)
	closed   bool
	failed   error // sticky write/sync failure

	// appendSeq numbers appends; assigned under mu, read lock-free.
	appendSeq atomic.Uint64

	// Group commit state. A SyncAlways append waits until syncedSeq
	// covers its sequence; one waiter becomes the leader and syncs for
	// the whole batch. failedSync mirrors failed so waiters observe
	// failures without touching mu.
	syncMu     sync.Mutex
	syncCond   *sync.Cond
	syncedSeq  uint64
	syncing    bool
	failedSync error
}

// OpenWAL opens (creating if needed) the log directory and starts a
// fresh segment numbered after the highest existing one. Existing
// segments are never appended to — a torn tail from a previous crash
// stays quarantined where replay left it.
func OpenWAL(dir string, opts WALOptions) (*WAL, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: wal dir: %w", err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	next, first := 1, 1
	if n := len(segs); n > 0 {
		next = segs[n-1] + 1
		first = segs[0]
	}
	w := &WAL{dir: dir, opts: opts, seg: next, firstSeg: first}
	w.syncCond = sync.NewCond(&w.syncMu)
	if err := w.openSegmentLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

func segmentPath(dir string, seg int) string {
	return filepath.Join(dir, fmt.Sprintf("%s%08d%s", walSegPrefix, seg, walSegSuffix))
}

// listSegments returns the existing segment indices, ascending.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, walSegPrefix) || !strings.HasSuffix(name, walSegSuffix) {
			continue
		}
		var n int
		if _, err := fmt.Sscanf(strings.TrimSuffix(strings.TrimPrefix(name, walSegPrefix), walSegSuffix), "%d", &n); err != nil {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// openSegmentLocked creates segment w.seg and writes its header.
// Caller holds w.mu (or has exclusive access during Open).
func (w *WAL) openSegmentLocked() error {
	path := segmentPath(w.dir, w.seg)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: wal segment: %w", err)
	}
	var sf SegmentFile = f
	if w.opts.WrapFile != nil {
		sf = w.opts.WrapFile(path, f)
	}
	if _, err := sf.Write(walSegHeader); err != nil {
		sf.Close()
		return fmt.Errorf("store: wal segment header: %w", err)
	}
	w.f = sf
	w.segBytes = int64(len(walSegHeader))
	return nil
}

// crcTable is the Castagnoli polynomial table CRC32C frames use.
var crcTable = crc32.MakeTable(crc32.Castagnoli)

// walBufPool recycles frame-encode buffers across appends.
var walBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// frameRecord encodes rec as one complete WAL frame into buf (which
// the caller has Reset), returning the frame bytes — a view into buf,
// valid until the buffer is reused. The append path and the follower
// bootstrap path share this encoder so both produce identical frames.
func frameRecord(buf *bytes.Buffer, rec *Record) ([]byte, error) {
	buf.Write(make([]byte, walHeaderLen)) // header placeholder
	if err := EncodeRecord(buf, rec); err != nil {
		return nil, err
	}
	b := buf.Bytes()
	payload := b[walHeaderLen:]
	if len(payload) > maxWALPayload {
		// Refuse before any byte reaches a segment: recovery rejects
		// frames past maxWALPayload, so writing one would plant a frame
		// that destroys itself (and everything behind it in the segment)
		// at the next replay. EncodeRecord's MaxSamplesPerAxis bound
		// makes this unreachable today; it stays as the invariant check
		// the durability contract is stated over. Per-record, not
		// sticky: the log itself is untouched and healthy.
		return nil, fmt.Errorf("%w: frame payload %d bytes exceeds %d", ErrRecordTooLarge, len(payload), maxWALPayload)
	}
	binary.LittleEndian.PutUint32(b[0:], walFrameMagic)
	binary.LittleEndian.PutUint32(b[4:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[8:], crc32.Checksum(payload, crcTable))
	return b, nil
}

// setFailedLocked records the sticky failure. Caller holds w.mu and
// must call notifyFailure after releasing it.
func (w *WAL) setFailedLocked(err error) error {
	if w.failed == nil {
		w.failed = fmt.Errorf("%w: %w", ErrWALFailed, err)
	}
	return w.failed
}

// notifyFailure mirrors the failure into the group-commit state and
// wakes every waiter. Must not be called with w.mu held.
func (w *WAL) notifyFailure(err error) {
	w.syncMu.Lock()
	if w.failedSync == nil {
		w.failedSync = err
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()
}

// Append logs one record, acknowledging per the sync policy: under
// SyncAlways the call returns only after the frame is fsynced (sharing
// the sync with any concurrent appends); under the other policies it
// returns once the frame is handed to the OS. A nil return is the
// acknowledgement the durability contract is stated over.
func (w *WAL) Append(rec *Record) error {
	frame := walBufPool.Get().(*bytes.Buffer)
	defer walBufPool.Put(frame)
	frame.Reset()
	b, err := frameRecord(frame, rec)
	if err != nil {
		return err
	}

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("%w: closed", ErrWALFailed)
	}
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return err
	}
	if w.segBytes > int64(len(walSegHeader)) && w.segBytes+int64(len(b)) > w.opts.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			err = w.setFailedLocked(err)
			w.mu.Unlock()
			w.notifyFailure(err)
			return err
		}
	}
	if _, err := w.f.Write(b); err != nil {
		err = w.setFailedLocked(err)
		w.mu.Unlock()
		w.notifyFailure(err)
		return err
	}
	if w.opts.OnFrame != nil {
		// Ship what reached the local disk, before the ack: a frame the
		// follower refused must not be acknowledged, and a wedged
		// follower wedges the primary — conservative by construction.
		if err := w.opts.OnFrame(w.seg, b); err != nil {
			err = w.setFailedLocked(fmt.Errorf("replicate: %w", err))
			w.mu.Unlock()
			w.notifyFailure(err)
			return err
		}
	}
	w.segBytes += int64(len(b))
	seq := w.appendSeq.Add(1)
	w.mu.Unlock()

	metWALAppends.Inc()
	metWALBytes.Add(uint64(len(b)))
	if w.opts.Policy == SyncAlways {
		return w.waitDurable(seq)
	}
	return nil
}

// waitDurable blocks until append seq is covered by an fsync, electing
// a sync leader when none is in flight — the group-commit core.
func (w *WAL) waitDurable(seq uint64) error {
	w.syncMu.Lock()
	for w.syncedSeq < seq {
		if w.failedSync != nil {
			err := w.failedSync
			w.syncMu.Unlock()
			return err
		}
		if w.syncing {
			w.syncCond.Wait()
			continue
		}
		w.syncing = true
		w.syncMu.Unlock()

		// Everything appended up to here is already written to its
		// segment: sequence numbers are assigned after the frame write,
		// under the same lock. Frames ≤ target live either in the
		// current file (synced below) or in an earlier segment (synced
		// when rotation sealed it).
		target := w.appendSeq.Load()
		w.mu.Lock()
		f := w.f
		err := w.failed
		if err == nil && (w.closed || f == nil) {
			err = fmt.Errorf("%w: closed", ErrWALFailed)
		}
		w.mu.Unlock()
		if err == nil {
			err = f.Sync()
			if err != nil && errors.Is(err, os.ErrClosed) {
				// The file was sealed (synced, then closed) by a
				// rotation that raced this sync: the data is durable.
				err = nil
			}
			if err == nil {
				metWALFsyncs.Inc()
			}
		}
		if err != nil {
			w.mu.Lock()
			err = w.setFailedLocked(err)
			w.mu.Unlock()
			w.syncMu.Lock()
			w.syncing = false
			if w.failedSync == nil {
				w.failedSync = err
			}
			w.syncCond.Broadcast()
			w.syncMu.Unlock()
			return err
		}
		w.syncMu.Lock()
		w.syncing = false
		if target > w.syncedSeq {
			w.syncedSeq = target
		}
		w.syncCond.Broadcast()
	}
	w.syncMu.Unlock()
	return nil
}

// Sync flushes every outstanding append to stable storage — the
// periodic heartbeat of the SyncInterval policy, and the barrier Close
// and checkpoints use.
func (w *WAL) Sync() error {
	seq := w.appendSeq.Load()
	if seq == 0 {
		return nil
	}
	return w.waitDurable(seq)
}

// rotateLocked seals the current segment (fsync + close) and opens the
// next one. Caller holds w.mu.
func (w *WAL) rotateLocked() error {
	if w.f != nil {
		if err := w.f.Sync(); err != nil {
			w.f.Close()
			return err
		}
		metWALFsyncs.Inc()
		if err := w.f.Close(); err != nil {
			return err
		}
		if w.opts.OnSeal != nil {
			w.opts.OnSeal(w.seg)
		}
	}
	w.seg++
	metWALRotations.Inc()
	return w.openSegmentLocked()
}

// Segment returns the index of the segment currently being appended to.
func (w *WAL) Segment() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seg
}

// Rotate seals the current segment and starts a new one, returning the
// new segment's index: every previously appended record lives in a
// segment with a smaller index. Checkpointing uses this as the cut
// point for retiring covered segments.
func (w *WAL) Rotate() (int, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, fmt.Errorf("%w: closed", ErrWALFailed)
	}
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return 0, err
	}
	if err := w.rotateLocked(); err != nil {
		err = w.setFailedLocked(err)
		w.mu.Unlock()
		w.notifyFailure(err)
		return 0, err
	}
	seg := w.seg
	w.mu.Unlock()
	return seg, nil
}

// Retire deletes every segment with index < cut — they are fully
// covered by a snapshot taken after Rotate returned cut. Returns how
// many segments were removed.
//
// On a partial failure the prefix that did get removed is still
// accounted: firstSeg advances to the segment that failed and the
// retired metric counts the removals that happened. Without that, a
// retry of Retire would start over at the old firstSeg, see IsNotExist
// for the already-removed segments, and never count them — the metric
// would under-report forever.
func (w *WAL) Retire(cut int) (int, error) {
	w.mu.Lock()
	first := w.firstSeg
	if cut > w.seg {
		cut = w.seg
	}
	w.mu.Unlock()
	removed := 0
	for seg := first; seg < cut; seg++ {
		err := os.Remove(segmentPath(w.dir, seg))
		if err != nil && !os.IsNotExist(err) {
			w.advanceRetiredTo(seg, removed)
			return removed, fmt.Errorf("store: wal retire: %w", err)
		}
		if err == nil {
			removed++
		}
	}
	w.advanceRetiredTo(cut, removed)
	return removed, nil
}

// advanceRetiredTo commits the outcome of a (possibly partial) Retire
// pass: every segment below upTo is gone from disk, and removed of them
// were deleted by this pass.
func (w *WAL) advanceRetiredTo(upTo, removed int) {
	w.mu.Lock()
	if upTo > w.firstSeg {
		w.firstSeg = upTo
	}
	w.mu.Unlock()
	metWALSegRetired.Add(uint64(removed))
}

// Close syncs and closes the current segment. Further appends fail.
//
// Ordering matters for appends racing a clean shutdown: Close performs
// the final sync and advances the durable watermark over every assigned
// sequence number *before* group-commit waiters can observe closure, so
// a SyncAlways append whose frame made it into the segment is acked —
// its bytes are durable — rather than failed spuriously.
func (w *WAL) Close() error {
	// Take group-commit leadership so no in-flight leader races the
	// final sync; waiters that arrive meanwhile park on the condvar.
	w.syncMu.Lock()
	for w.syncing {
		w.syncCond.Wait()
	}
	w.syncing = true
	w.syncMu.Unlock()
	releaseLeadership := func() {
		w.syncMu.Lock()
		w.syncing = false
		w.syncCond.Broadcast()
		w.syncMu.Unlock()
	}

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		releaseLeadership()
		return nil
	}
	w.closed = true
	f := w.f
	w.f = nil
	failed := w.failed
	seg := w.seg
	w.mu.Unlock()

	// Every frame written before closed was set has its sequence number
	// assigned (both happen under mu), so after this sync the target
	// read below covers all of them.
	var err error
	if f != nil && failed == nil {
		err = f.Sync()
		if err == nil {
			metWALFsyncs.Inc()
		}
	}
	target := w.appendSeq.Load()

	w.syncMu.Lock()
	w.syncing = false
	if err == nil && failed == nil && target > w.syncedSeq {
		w.syncedSeq = target
	}
	if w.failedSync == nil {
		w.failedSync = fmt.Errorf("%w: closed", ErrWALFailed)
	}
	w.syncCond.Broadcast()
	w.syncMu.Unlock()

	if f == nil {
		return err
	}
	cerr := f.Close()
	if err == nil {
		err = cerr
	}
	if err == nil && failed == nil && w.opts.OnSeal != nil {
		// A cleanly closed final segment is sealed like a rotation: the
		// follower can close its mirror of it too.
		w.opts.OnSeal(seg)
	}
	return err
}

// abort closes the current segment file without syncing — the
// crash-point harness's way to drop a WAL on the floor mid-run without
// leaking the descriptor.
func (w *WAL) abort() {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return
	}
	w.closed = true
	w.setFailedLocked(errors.New("aborted"))
	f := w.f
	w.f = nil
	err := w.failed
	w.mu.Unlock()
	w.notifyFailure(err)
	if f != nil {
		f.Close()
	}
}

// WAL decode errors. All of them mean "truncate replay here"; none of
// them should ever surface as a panic, whatever the input bytes.
var (
	errWALBadMagic  = errors.New("store: wal frame: bad magic")
	errWALBadLength = errors.New("store: wal frame: implausible length")
	errWALBadCRC    = errors.New("store: wal frame: crc mismatch")
)

// scanWALFrame reads one frame's header and payload from r into (a
// possibly grown) buf and returns the payload with the CRC its header
// claims, unchecked. io.EOF means a clean end at a frame boundary; every
// other error marks a torn or corrupt frame.
func scanWALFrame(r io.Reader, buf []byte) (payload []byte, wantCRC uint32, err error) {
	var hdr [walHeaderLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, 0, io.ErrUnexpectedEOF
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != walFrameMagic {
		return nil, 0, errWALBadMagic
	}
	n := binary.LittleEndian.Uint32(hdr[4:])
	if n > maxWALPayload {
		return nil, 0, errWALBadLength
	}
	if cap(buf) < int(n) {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, 0, io.ErrUnexpectedEOF
	}
	return buf, binary.LittleEndian.Uint32(hdr[8:]), nil
}

// readWALFrame is scanWALFrame plus the CRC check. The returned payload
// aliases buf when it fit and is only valid until buf's next use.
func readWALFrame(r io.Reader, buf []byte) ([]byte, error) {
	payload, wantCRC, err := scanWALFrame(r, buf)
	if err != nil {
		return nil, err
	}
	if crc32.Checksum(payload, crcTable) != wantCRC {
		return nil, errWALBadCRC
	}
	return payload, nil
}

// ReplayStats summarizes one recovery replay.
type ReplayStats struct {
	// Segments is how many segment files were visited.
	Segments int
	// Records is how many intact records were replayed.
	Records int
	// Truncations counts segments whose replay stopped at a torn or
	// corrupt frame (or an unreadable segment header) rather than a
	// clean EOF. More than one means the log survived multiple crashes.
	Truncations int
	// TruncatedSegment is the first segment index a truncation was
	// found in (0 when Truncations is 0).
	TruncatedSegment int
}

// Truncated reports whether any segment was cut short.
func (s ReplayStats) Truncated() bool { return s.Truncations > 0 }

// ReplayWAL replays every intact record in dir's segments, in segment
// then frame order. Within a segment, replay stops at the first torn
// or corrupt frame — everything behind a bad frame is untrusted — but
// later segments still replay: they were written by runs that started
// after an earlier crash truncated its predecessor, so their records
// are independent of the garbage tail. Replay never panics on
// arbitrary directory contents: garbage files, short headers and
// bit-flipped frames all just truncate the affected segment. A
// missing directory replays nothing.
//
// Frame verification (CRC + decode) fans out across GOMAXPROCS
// workers while apply stays strictly in frame order; see replay.go
// for the pipeline and ReplayWALWorkers for an explicit worker count.
func ReplayWAL(dir string, apply func(*Record) error) (ReplayStats, error) {
	return replayWAL(dir, apply, false, 0)
}

// replayWAL implements ReplayWAL; with repair set it also physically
// truncates each damaged segment at its last intact frame, so the torn
// bytes cannot be re-reported (or misread) by any later scan. workers
// <= 0 means GOMAXPROCS; an effective count of 1 runs the sequential
// replayer.
func replayWAL(dir string, apply func(*Record) error, repair bool, workers int) (ReplayStats, error) {
	var stats ReplayStats
	segs, err := listSegments(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return stats, nil
		}
		return stats, fmt.Errorf("store: wal replay: %w", err)
	}
	for _, seg := range segs {
		stats.Segments++
		path := segmentPath(dir, seg)
		goodBytes, n, truncated, rerr := replaySegment(path, apply, workers)
		stats.Records += n
		if rerr != nil {
			return stats, rerr
		}
		if truncated {
			stats.Truncations++
			if stats.TruncatedSegment == 0 {
				stats.TruncatedSegment = seg
			}
			metWALTruncations.Inc()
			if repair {
				// Ignore repair errors: a read-only log still recovers
				// correctly on every future open, just re-truncating.
				_ = os.Truncate(path, goodBytes)
			}
		}
	}
	metWALReplayed.Add(uint64(stats.Records))
	return stats, nil
}

// replaySegment replays one segment file through replayFrames, whose
// results it returns; err also reports an unreadable file.
func replaySegment(path string, apply func(*Record) error, workers int) (goodBytes int64, records int, truncated bool, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("store: wal replay: %w", err)
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	hdr := make([]byte, len(walSegHeader))
	if _, err := io.ReadFull(br, hdr); err != nil || !bytes.Equal(hdr, walSegHeader) {
		// Not a (complete) segment header: a crash during segment
		// creation, or a foreign file. Either way: truncate it all.
		return 0, 0, true, nil
	}
	return replayFrames(br, int64(len(walSegHeader)), apply, workers)
}
