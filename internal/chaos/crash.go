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

// crashTrialConfig parameterizes one crash-point trial.
type crashTrialConfig struct {
	// Dir is the durable store directory (one per trial).
	Dir string
	// Seed fixes the generated record stream.
	Seed int64
	// Records is how many appends the trial attempts.
	Records int
	// CheckpointEvery checkpoints after every n-th acked append, so
	// snapshot (and, when Tiered, partition) writes interleave with the
	// appends in one byte stream; 0 never checkpoints before the crash.
	CheckpointEvery int
	// Tiered enables the cold tier (hot window 4 days, partitions of 2
	// over the stream's 4 records a day), so checkpoints compact.
	Tiered bool
	// CrashAfterBytes cuts that byte stream at this offset, wherever it
	// falls — frame, segment header, snapshot temp, partition temp;
	// <= 0 runs to completion without crashing.
	CrashAfterBytes int64
	// SegmentBytes sets the WAL rotation threshold (0 = default).
	// Small values make crash offsets land on rotation boundaries.
	SegmentBytes int64
	// Policy is the WAL fsync policy under test.
	Policy store.SyncPolicy
	// ReplayWorkers is the recovery parallelism every reopen in the
	// trial uses (<= 0 GOMAXPROCS, 1 sequential) — the sweep pins it
	// above 1 to prove recovered == acked under the parallel replayer.
	ReplayWorkers int
}

// crashTrialResult reports one trial.
type crashTrialResult struct {
	// Attempted is how many appends were issued before the first
	// failure (or all of them).
	Attempted int
	// Acked is how many appends were acknowledged (nil error).
	Acked int
	// Recovered is how many records reopening the store reconstructed,
	// hot and cold together.
	Recovered int
	// Crashed reports whether the injected crash fired, and CutKind
	// names the kind of file whose write it cut.
	Crashed bool
	CutKind FileKind
	// Bytes is the total the trial wrote through the budget.
	Bytes int64
	// Temps locates every temp file the trial wrote in that stream.
	Temps []TempSpan
}

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

func (cfg crashTrialConfig) options(wrap func(string, *os.File) store.SegmentFile) store.DurableOptions {
	opts := store.DurableOptions{
		WAL:           store.WALOptions{SegmentBytes: cfg.SegmentBytes, Policy: cfg.Policy, WrapFile: wrap},
		ReplayWorkers: cfg.ReplayWorkers,
	}
	if cfg.Tiered {
		opts.Tiered = &store.TieredOptions{
			HotWindowDays: 4,
			PartitionDays: 2,
			// One scalar stream, as a deployment's partitions carry.
			Metrics: []store.ColdMetric{{Name: "first", Fn: func(r *store.Record) float64 { return float64(r.Raw[0][0]) }}},
		}
	}
	return opts
}

// runCrashTrial appends a seeded record stream into a durable store,
// checkpointing as configured, with every byte the store writes — WAL
// segments, snapshot temps, partition temps — counted against one
// budget that cuts the stream at an injected offset. It then checks
// the recovery contract, reopening with no wrapper:
//
//   - hot ∪ cold holds exactly the acknowledged appends, byte for byte
//     (no acked record lost, no phantom, no panic);
//   - no *.tmp* file is left anywhere under the directory;
//   - a further checkpoint converges and still holds exactly that;
//   - a second reopen is identical.
//
// A non-nil error means the contract was violated (or the trial could
// not run).
func runCrashTrial(cfg crashTrialConfig) (crashTrialResult, error) {
	var res crashTrialResult
	budget := NewCrashBudget(cfg.CrashAfterBytes)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var acked []*store.Record
	// A failure before the budget fired is the store's, not the trial's.
	d, _, err := store.OpenDurable(cfg.Dir, cfg.options(budget.Wrap))
	if err == nil {
		for i := 0; i < cfg.Records; i++ {
			rec := TrialRecord(rng, i)
			res.Attempted++
			var stored bool
			if stored, err = d.AddUnique(rec); err != nil {
				break
			}
			if !stored {
				d.Abort()
				return res, fmt.Errorf("append %d: unexpectedly judged duplicate", i)
			}
			acked = append(acked, rec)
			if cfg.CheckpointEvery > 0 && (i+1)%cfg.CheckpointEvery == 0 {
				if _, err = d.Checkpoint(); err != nil {
					break
				}
			}
		}
		d.Abort()
	}
	res.Acked = len(acked)
	res.Crashed = budget.Crashed()
	res.CutKind = budget.cutKind
	res.Bytes = budget.Written()
	res.Temps = budget.temps
	if err != nil && !res.Crashed {
		return res, fmt.Errorf("failed without an injected crash: %w", err)
	}
	if budget.pinErr != nil {
		return res, fmt.Errorf("pin the torn temp: %w", budget.pinErr)
	}

	for _, pass := range []string{"reopen after crash", "second reopen"} {
		re, _, err := store.OpenDurable(cfg.Dir, cfg.options(nil))
		if err != nil {
			return res, fmt.Errorf("%s: %w", pass, err)
		}
		err = durableHoldsExactly(re, acked, &res.Recovered)
		if err == nil {
			err = noTempsUnder(cfg.Dir)
		}
		if err == nil && pass == "reopen after crash" {
			// Convergence: the next checkpoint finishes whatever the
			// crash interrupted and retires the log it replayed.
			if _, err = re.Checkpoint(); err != nil {
				err = fmt.Errorf("checkpoint: %w", err)
			} else {
				err = durableHoldsExactly(re, acked, &res.Recovered)
			}
		}
		re.Abort()
		if err != nil {
			return res, fmt.Errorf("%s: %w", pass, err)
		}
	}
	return res, nil
}

// durableHoldsExactly asserts that the union of d's hot store and cold
// partitions is exactly the acked records. Records a crash left in
// both tiers (renamed partition, WAL not yet retired) dedupe by key;
// the byte comparison then also proves the cold copy decompressed
// bit-identical to what was acked.
func durableHoldsExactly(d *store.Durable, acked []*store.Record, n *int) error {
	union := store.NewMeasurements()
	for _, id := range d.Store().Pumps() {
		for _, rec := range d.Store().All(id) {
			union.AddUnique(rec)
		}
	}
	if c := d.Cold(); c != nil {
		for _, id := range c.Pumps() {
			recs, err := c.Records(id)
			if err != nil {
				return fmt.Errorf("decompress pump %d: %w", id, err)
			}
			for _, rec := range recs {
				union.AddUnique(rec)
			}
		}
	}
	*n = union.Len()
	return CheckRecovered(union, acked, acked)
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
