package chaos

import (
	"bytes"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"vibepm/internal/store"
)

// ErrCrashed is the error a CrashWriter returns once its byte budget
// is exhausted — the injected stand-in for the process dying mid-write.
var ErrCrashed = errors.New("chaos: injected crash")

// FileKind tells apart the files a durable store writes through its
// one wrapper seam (store.WALOptions.WrapFile), by their path.
type FileKind int

const (
	// KindSegment is a WAL segment file.
	KindSegment FileKind = iota
	// KindSnapshotTemp is the checkpoint snapshot before its rename.
	KindSnapshotTemp
	// KindPartitionTemp is a cold partition before its rename.
	KindPartitionTemp
)

func (k FileKind) String() string {
	return [...]string{"wal_segment", "snapshot_temp", "partition_temp"}[k]
}

func kindOf(path string) FileKind {
	switch base := filepath.Base(path); {
	case strings.Contains(base, ".cold.tmp"):
		return KindPartitionTemp
	case strings.Contains(base, ".tmp"):
		return KindSnapshotTemp
	default:
		return KindSegment
	}
}

// TempSpan locates one temp file in a trial's byte stream: its bytes
// are offsets [Start, End) of everything written through the budget.
type TempSpan struct {
	Kind       FileKind
	Start, End int64
}

// CrashBudget is a byte allowance shared by every CrashWriter wrapping
// one durable store: after budget bytes have been written (across
// segment files, snapshot temps and partition temps alike, headers
// included), the write in flight is cut at exactly that offset and
// every later write or sync fails. The partial prefix reaches the real
// file — precisely what a kernel would have persisted when the process
// died mid-write.
type CrashBudget struct {
	mu        sync.Mutex
	remaining int64
	written   int64
	crashed   bool
	cutKind   FileKind
	temps     []TempSpan
	pinErr    error
}

// NewCrashBudget allows n bytes before the crash. n <= 0 means no
// crash: the budget only counts bytes, which is how the harness
// measures a trial's total footprint.
func NewCrashBudget(n int64) *CrashBudget {
	if n <= 0 {
		n = math.MaxInt64
	}
	return &CrashBudget{remaining: n}
}

// Written returns the bytes written through so far.
func (b *CrashBudget) Written() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.written
}

// Crashed reports whether the budget has fired.
func (b *CrashBudget) Crashed() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.crashed
}

// Wrap interposes the budget on one file — the function handed to
// store.WALOptions.WrapFile.
func (b *CrashBudget) Wrap(path string, f *os.File) store.SegmentFile {
	c := &CrashWriter{f: f, path: path, kind: kindOf(path), span: -1, budget: b}
	if c.kind != KindSegment {
		b.mu.Lock()
		c.span = len(b.temps)
		b.temps = append(b.temps, TempSpan{Kind: c.kind, Start: b.written, End: b.written})
		b.mu.Unlock()
	}
	return c
}

// CrashWriter is a SegmentFile that writes through to the real file
// until the shared budget fires, then drops everything: the write that
// crosses the budget persists only its prefix, and every later write
// and fsync returns ErrCrashed. Deterministic by construction — the
// crash point is a pure function of the byte stream, not of timing.
type CrashWriter struct {
	f      *os.File
	path   string
	kind   FileKind
	span   int // index into budget.temps, -1 for a segment
	budget *CrashBudget
}

// Write implements io.Writer with the injected cut-off.
func (c *CrashWriter) Write(p []byte) (int, error) {
	b := c.budget
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.crashed {
		return 0, ErrCrashed
	}
	keep, err := int64(len(p)), error(nil)
	if keep > b.remaining {
		keep, err = b.remaining, ErrCrashed
		b.crashed = true
		b.cutKind = c.kind
	}
	n, werr := c.f.Write(p[:keep])
	b.remaining -= int64(n)
	b.written += int64(n)
	if c.span >= 0 {
		b.temps[c.span].End = b.written
	}
	if err != nil && c.span >= 0 {
		// A dead process cannot clean up after itself, but the error
		// return standing in for its death lets the store remove the
		// torn temp. Pin it under a second name of the same *.tmp* shape
		// so the next open finds what a real kill would have left.
		b.pinErr = os.Link(c.path, c.path+".torn")
	}
	if err == nil {
		err = werr
	}
	return n, err
}

// Sync fsyncs until the crash, then fails like the dead process would.
func (c *CrashWriter) Sync() error {
	if c.budget.Crashed() {
		return ErrCrashed
	}
	return c.f.Sync()
}

// Close always releases the descriptor; a crashed file still closes so
// trial loops do not leak descriptors.
func (c *CrashWriter) Close() error { return c.f.Close() }

// Cut is one crash point of a sweep: the byte offset the budget fires
// at, the WAL fsync policy of the trial, and the recovery parallelism
// of its reopens (<= 0 GOMAXPROCS, 1 sequential).
type Cut struct {
	At            int64
	Policy        store.SyncPolicy
	ReplayWorkers int
}

// sweepPolicies are the fsync policies every sweep cycles through.
var sweepPolicies = []store.SyncPolicy{store.SyncAlways, store.SyncNever, store.SyncInterval}

// streamEdges are the offsets of a total-byte stream every sweep cuts
// exactly: the first byte, either side of the WAL segment header's
// end, and the stream's last two bytes. Those past total are dropped.
func streamEdges(total int64) []int64 {
	hdr := int64(len("VPMWAL1\n")) // a WAL segment header
	var edges []int64
	for _, at := range []int64{1, hdr - 1, hdr, total - 1, total} {
		if at >= 1 && at <= total {
			edges = append(edges, at)
		}
	}
	return edges
}

// SweepCuts is the offset plan of every crash sweep over a stream of
// total bytes: n offsets strided from byte 1 (stride total/n, at least
// 1), each moved forward by seeded jitter within its stride and capped
// at total, with the policy cycling Always, Never, Interval and the
// replay workers 4, 1, 0 by trial index, so recovered == acked is
// proven under the parallel replayer and the sequential one alike.
// Then every stream edge (streamEdges) at every policy with 4 workers.
// The plan is a pure function of its arguments.
func SweepCuts(total int64, n int, seed int64) []Cut {
	stride := max(total/int64(max(n, 1)), 1)
	rng := rand.New(rand.NewSource(seed))
	workers := []int{4, 1, 0}
	var cuts []Cut
	for off := int64(1); off <= total; off += stride {
		i := len(cuts)
		at := min(off+rng.Int63n(stride+1), total)
		cuts = append(cuts, Cut{At: at, Policy: sweepPolicies[i%len(sweepPolicies)], ReplayWorkers: workers[i%len(workers)]})
	}
	for _, at := range streamEdges(total) {
		for _, p := range sweepPolicies {
			cuts = append(cuts, Cut{At: at, Policy: p, ReplayWorkers: 4})
		}
	}
	return cuts
}

// TrialRecord builds the i-th record of a seeded trial stream: pump
// ids stride across every shard (and every member of a small cluster),
// service times ascend four to a day, and the samples are seeded noise
// so every record's bytes are distinct — a swapped or phantom record
// cannot hide behind an identical payload.
func TrialRecord(rng *rand.Rand, i int) *store.Record {
	raw := make([]int16, 8)
	for j := range raw {
		raw[j] = int16(rng.Intn(4096) - 2048)
	}
	return &store.Record{
		PumpID:       (i * 7) % 48,
		ServiceDays:  float64(i) * 0.25,
		SampleRateHz: 4000,
		ScaleG:       0.003,
		Raw:          [3][]int16{raw, raw, raw},
	}
}

// CheckRecovered is the one yardstick every crash harness measures
// with: acked ⊆ got ⊆ attempted, byte for byte in the canonical record
// encoding — every acknowledged record survived, and nothing that was
// never sent (or a mangled copy of something that was) materialized.
// Passing the same slice twice asserts got holds exactly those records.
func CheckRecovered(got *store.Measurements, acked, attempted []*store.Record) error {
	type key struct {
		pump int
		day  float64
	}
	encode := func(rec *store.Record) ([]byte, error) {
		var b bytes.Buffer
		err := store.EncodeRecord(&b, rec)
		return b.Bytes(), err
	}
	sent := make(map[key][]byte, len(attempted))
	for _, rec := range attempted {
		b, err := encode(rec)
		if err != nil {
			return err
		}
		sent[key{rec.PumpID, rec.ServiceDays}] = b
	}
	held := make(map[key]bool, got.Len())
	for _, id := range got.Pumps() {
		for _, rec := range got.All(id) {
			k := key{rec.PumpID, rec.ServiceDays}
			b, err := encode(rec)
			if err != nil {
				return err
			}
			want, ok := sent[k]
			switch {
			case !ok:
				return fmt.Errorf("phantom record pump %d t=%g", k.pump, k.day)
			case held[k]:
				return fmt.Errorf("record pump %d t=%g held twice", k.pump, k.day)
			case !bytes.Equal(b, want):
				return fmt.Errorf("record pump %d t=%g differs from what was sent", k.pump, k.day)
			}
			held[k] = true
		}
	}
	for _, rec := range acked {
		if !held[key{rec.PumpID, rec.ServiceDays}] {
			return fmt.Errorf("acked record pump %d t=%g lost (%d held, %d acked)",
				rec.PumpID, rec.ServiceDays, len(held), len(acked))
		}
	}
	return nil
}

// noTempsUnder asserts the open-time sweeps left no atomic-writer temp
// anywhere under dir.
func noTempsUnder(dir string) error {
	return filepath.WalkDir(dir, func(path string, e fs.DirEntry, err error) error {
		if err == nil && !e.IsDir() && strings.Contains(e.Name(), ".tmp") {
			err = fmt.Errorf("leftover temp file %s", path)
		}
		return err
	})
}
