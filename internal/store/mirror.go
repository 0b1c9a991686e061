package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// SegmentMirror is the follower side of WAL segment replication: it
// writes a byte-identical, WAL-format mirror of a primary's segment
// stream into its own directory. Frames arrive through AppendFrame —
// the function a primary's WALOptions.OnFrame hook calls — and land in
// segment files named exactly like the primary's (wal-NNNNNNNN.seg),
// so promotion is nothing special: ReplayWALWorkers over the mirror
// directory reconstructs every replicated record with the same torn-frame
// truncation rules the primary's own recovery uses.
//
// The mirror never retires segments on its own: it accumulates the
// primary's full append history since shipping began, and relies on
// the idempotent replay apply (AddUnique) to make re-processing
// harmless. It is safe for concurrent use.
type SegmentMirror struct {
	mu     sync.Mutex
	dir    string
	f      *os.File
	seg    int
	closed bool

	frames atomic.Uint64
	bytes  atomic.Uint64
}

// ErrMirrorClosed is returned by appends to a closed mirror.
var ErrMirrorClosed = errors.New("store: segment mirror closed")

// NewSegmentMirror opens (creating if needed) a mirror rooted at dir.
func NewSegmentMirror(dir string) (*SegmentMirror, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: mirror dir: %w", err)
	}
	return &SegmentMirror{dir: dir}, nil
}

// Dir returns the mirror directory — the replay target at promotion.
func (m *SegmentMirror) Dir() string { return m.dir }

// FramesShipped returns how many frames the mirror accepted.
func (m *SegmentMirror) FramesShipped() uint64 { return m.frames.Load() }

// BytesShipped returns how many frame bytes the mirror accepted.
func (m *SegmentMirror) BytesShipped() uint64 { return m.bytes.Load() }

// openSegLocked switches the mirror to segment seg, closing any
// previous file. A fresh (empty) file gets the segment header; an
// existing one is appended to, which is how a mirror resumes after a
// follower restart mid-segment.
func (m *SegmentMirror) openSegLocked(seg int) error {
	if m.f != nil {
		if err := m.f.Close(); err != nil {
			return err
		}
		m.f = nil
	}
	f, err := os.OpenFile(segmentPath(m.dir, seg), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: mirror segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return err
	}
	if st.Size() == 0 {
		if _, err := f.Write(walSegHeader); err != nil {
			f.Close()
			return fmt.Errorf("store: mirror segment header: %w", err)
		}
	}
	m.f = f
	m.seg = seg
	return nil
}

// AppendFrame appends one already-framed WAL entry to the mirror of
// segment seg, switching segment files when the primary rotates. The
// frame bytes are written before the call returns — once AppendFrame
// succeeds, a replay of the mirror directory observes the record
// (modulo the OS page cache; Seal and Sync fsync).
func (m *SegmentMirror) AppendFrame(seg int, frame []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrMirrorClosed
	}
	if m.f == nil || seg != m.seg {
		if err := m.openSegLocked(seg); err != nil {
			return err
		}
	}
	if _, err := m.f.Write(frame); err != nil {
		return fmt.Errorf("store: mirror append: %w", err)
	}
	m.frames.Add(1)
	m.bytes.Add(uint64(len(frame)))
	metClusterFramesShipped.Inc()
	metClusterShipBytes.Add(uint64(len(frame)))
	return nil
}

// mirrorBatchBytes bounds one bootstrap write: frames accumulate in a
// batch buffer and hit the file in ~1 MiB writes instead of one
// syscall per record.
const mirrorBatchBytes = 1 << 20

// AppendRecords encodes recs as WAL frames and appends them to segment
// seg in batched writes — the bootstrap path: when a primary retargets
// to a fresh follower it seeds its whole store into the new mirror as
// synthetic frames, and one Write per record would cost a syscall per
// 6 KB frame. The frames are byte-identical to the ones the WAL ships
// through AppendFrame; a replay cannot tell them apart. Returns how
// many records were appended — on error, every appended frame is
// already in the file, so the mirror is exactly as replayable as a
// primary that crashed at the same point.
func (m *SegmentMirror) AppendRecords(seg int, recs []*Record) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	buf := walBufPool.Get().(*bytes.Buffer)
	defer walBufPool.Put(buf)
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return 0, ErrMirrorClosed
	}
	if m.f == nil || seg != m.seg {
		if err := m.openSegLocked(seg); err != nil {
			return 0, err
		}
	}
	var (
		appended int
		batch    = make([]byte, 0, mirrorBatchBytes)
		pending  int
	)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		if _, err := m.f.Write(batch); err != nil {
			return fmt.Errorf("store: mirror append: %w", err)
		}
		m.frames.Add(uint64(pending))
		m.bytes.Add(uint64(len(batch)))
		metClusterFramesShipped.Add(uint64(pending))
		metClusterShipBytes.Add(uint64(len(batch)))
		appended += pending
		batch = batch[:0]
		pending = 0
		return nil
	}
	for _, rec := range recs {
		buf.Reset()
		frame, err := frameRecord(buf, rec)
		if err != nil {
			// Flush what framed cleanly, then report the bad record.
			if ferr := flush(); ferr != nil {
				return appended, ferr
			}
			return appended, err
		}
		batch = append(batch, frame...)
		pending++
		if len(batch) >= mirrorBatchBytes {
			if err := flush(); err != nil {
				return appended, err
			}
		}
	}
	if err := flush(); err != nil {
		return appended, err
	}
	return appended, nil
}

// Seal closes the mirror of segment seg after the primary sealed it
// (the WALOptions.OnSeal hook), fsyncing first so the sealed mirror is
// durable. Sealing a segment the mirror is not currently writing is a
// no-op: the primary may seal segments that predate the mirror.
func (m *SegmentMirror) Seal(seg int) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.f == nil || m.seg != seg {
		return nil
	}
	if err := m.f.Sync(); err != nil {
		return err
	}
	err := m.f.Close()
	m.f = nil
	return err
}

// Sync flushes the current mirror segment to stable storage.
func (m *SegmentMirror) Sync() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || m.f == nil {
		return nil
	}
	return m.f.Sync()
}

// Close syncs and closes the mirror. Further appends fail.
func (m *SegmentMirror) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closed = true
	if m.f == nil {
		return nil
	}
	serr := m.f.Sync()
	cerr := m.f.Close()
	m.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}
