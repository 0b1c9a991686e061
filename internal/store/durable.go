package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// snapshotName is the checkpoint snapshot file inside a durable
// directory, written through writeFileAtomic.
const snapshotName = "snapshot.bin"

// HasSnapshot reports whether the durable directory dir holds a
// checkpoint snapshot. OpenDurable replaces a preloaded store's
// contents with it, so a caller may skip loading a corpus it would
// only throw away.
func HasSnapshot(dir string) bool {
	_, err := os.Stat(filepath.Join(dir, snapshotName))
	return err == nil
}

// DurableOptions parameterizes a durable store.
type DurableOptions struct {
	// WAL configures the write-ahead log.
	WAL WALOptions
	// Store, when non-nil, is the in-memory store to recover into and
	// serve from; its existing contents (e.g. a preloaded corpus) are
	// kept unless a snapshot exists, which replaces them. Nil allocates
	// a fresh store.
	Store *Measurements
	// Tiered, when non-nil, enables the cold tier: each checkpoint
	// compacts records older than the hot window into compressed
	// partitions (and applies retention) instead of letting history be
	// bounded by the snapshot.
	Tiered *TieredOptions
	// ReplayWorkers bounds recovery parallelism: the frame verification
	// of the snapshot and of every WAL segment, both read by
	// replayFrames. <= 0 means GOMAXPROCS; 1 forces the sequential path.
	ReplayWorkers int
}

// RecoveryStats reports what OpenDurable reconstructed.
type RecoveryStats struct {
	// SnapshotRecords is how many records the snapshot file held
	// (0 when no snapshot exists yet).
	SnapshotRecords int
	// SnapshotLoaded reports whether a snapshot file was found.
	SnapshotLoaded bool
	// Replay summarizes the WAL replay on top of the snapshot.
	Replay ReplayStats
	// Replayed is how many replayed records actually landed (records
	// already covered by the snapshot dedupe away).
	Replayed int
	// SnapshotLoadDuration is the wall-clock time spent decoding the
	// snapshot into the store (zero when no snapshot exists).
	SnapshotLoadDuration time.Duration
	// ReplayDuration is the wall-clock time spent replaying the WAL.
	ReplayDuration time.Duration
}

// CheckpointStats reports one checkpoint.
type CheckpointStats struct {
	// Records is how many records the snapshot persisted.
	Records int
	// SegmentsRetired is how many fully-covered WAL segments were
	// retired (their history lives on in the snapshot and, under
	// tiering, the cold partitions).
	SegmentsRetired int
	// Duration is the wall-clock checkpoint time.
	Duration time.Duration
	// Compaction summarizes the tiering pass (zero when tiering is
	// disabled).
	Compaction CompactionStats
}

// Durable couples a Measurements store with a write-ahead log and
// checkpointing: every Add/AddUnique is logged (and fsynced per the
// WAL policy) before it is applied and acknowledged, so the sequence
// snapshot + WAL replay always reconstructs every acknowledged write.
// It is safe for concurrent use.
type Durable struct {
	m   *Measurements
	wal *WAL
	dir string
	// wrapFile is WALOptions.WrapFile, applied to the snapshot and
	// partition temps as the WAL applies it to its segments.
	wrapFile func(path string, f *os.File) SegmentFile

	// tiered/cold are set when DurableOptions.Tiered enabled the cold
	// tier; both are nil otherwise.
	tiered *TieredOptions
	cold   *ColdStore

	// ckptMu's read side is held across each append's WAL-write +
	// memory-apply pair; the write side is held only while Checkpoint
	// rotates the log. That ordering is the crux of checkpoint
	// correctness: once Rotate returns, every record in a pre-cut
	// segment is also applied in memory, so the snapshot taken next is
	// a superset of every segment about to be retired.
	ckptMu sync.RWMutex

	// checkpointing serializes Checkpoint calls.
	checkpointing sync.Mutex

	// Background loop plumbing.
	stopOnce    sync.Once
	stopCh      chan struct{}
	done        chan struct{}
	loopStarted atomic.Bool
}

// OpenDurable opens (creating if needed) a durable store rooted at
// dir: it removes the temps an interrupted checkpoint left behind,
// loads the latest snapshot if one exists, replays every
// intact WAL record on top of it (truncating each damaged segment at
// its first torn or corrupt frame), and starts a fresh WAL segment for
// new appends. Replay applies records idempotently, so segments that
// overlap the snapshot — or duplicated AddUnique deliveries logged
// twice — cannot inflate the store.
func OpenDurable(dir string, opts DurableOptions) (*Durable, RecoveryStats, error) {
	var stats RecoveryStats
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, stats, fmt.Errorf("store: durable dir: %w", err)
	}
	if err := removeStaleTemps(dir); err != nil {
		return nil, stats, fmt.Errorf("store: durable dir: %w", err)
	}
	m := opts.Store
	if m == nil {
		m = NewMeasurements()
	}
	if HasSnapshot(dir) {
		start := time.Now()
		if err := m.loadFile(filepath.Join(dir, snapshotName), opts.ReplayWorkers); err != nil {
			return nil, stats, fmt.Errorf("store: load snapshot: %w", err)
		}
		stats.SnapshotLoadDuration = time.Since(start)
		stats.SnapshotLoaded = true
		stats.SnapshotRecords = m.Len()
		metRecoverySnapDur.Observe(stats.SnapshotLoadDuration.Seconds())
	}
	replayed := 0
	replayStart := time.Now()
	rstats, err := replayWAL(walDir(dir), func(rec *Record) error {
		if m.AddUnique(rec) {
			replayed++
		}
		return nil
	}, true, opts.ReplayWorkers)
	if err != nil {
		return nil, stats, err
	}
	stats.ReplayDuration = time.Since(replayStart)
	metRecoveryReplayDur.Observe(stats.ReplayDuration.Seconds())
	stats.Replay = rstats
	stats.Replayed = replayed
	wal, err := OpenWAL(walDir(dir), opts.WAL)
	if err != nil {
		return nil, stats, err
	}
	metRecoveries.Inc()
	d := &Durable{m: m, wal: wal, dir: dir, wrapFile: opts.WAL.WrapFile, stopCh: make(chan struct{}), done: make(chan struct{})}
	if opts.Tiered != nil {
		t := opts.Tiered.withDefaults(dir)
		cold, err := OpenColdStore(t.ColdDir)
		if err != nil {
			wal.Close()
			return nil, stats, err
		}
		d.tiered = &t
		d.cold = cold
	}
	return d, stats, nil
}

// walDir is where a durable store keeps its log segments.
func walDir(dir string) string { return filepath.Join(dir, "wal") }

// Store returns the in-memory store for reads. Mutations must go
// through the Durable methods or they will not survive a crash.
func (d *Durable) Store() *Measurements { return d.m }

// WAL returns the underlying log (for tests and metrics).
func (d *Durable) WAL() *WAL { return d.wal }

// Cold returns the cold partition store, or nil when tiering is
// disabled. Reads that want full history merge it with Store().
func (d *Durable) Cold() *ColdStore { return d.cold }

// AddUnique logs and applies one record unless the pump already holds
// a record at the same service time. A nil error acknowledges the write
// as durable per the WAL's sync policy; on error the record was neither
// acknowledged nor applied. The duplicate check happens at apply time;
// a duplicate's log frame is harmless because recovery replays
// idempotently (a crash between snapshot and segment retirement leaves
// segments overlapping the snapshot anyway).
func (d *Durable) AddUnique(rec *Record) (bool, error) {
	d.ckptMu.RLock()
	defer d.ckptMu.RUnlock()
	if err := d.wal.Append(rec); err != nil {
		return false, err
	}
	return d.m.AddUnique(rec), nil
}

// Sync flushes outstanding WAL appends to stable storage — the
// periodic heartbeat a SyncInterval deployment drives.
func (d *Durable) Sync() error { return d.wal.Sync() }

// Checkpoint snapshots the store and retires every WAL segment the
// snapshot fully covers. Ingestion keeps running: appends are blocked
// only for the brief log rotation, never across the snapshot I/O.
func (d *Durable) Checkpoint() (CheckpointStats, error) {
	d.checkpointing.Lock()
	defer d.checkpointing.Unlock()
	start := time.Now()

	// Rotate under the append-exclusive lock: afterwards, every record
	// in a segment below cut has also been applied to the in-memory
	// store, so the snapshot below covers those segments completely.
	d.ckptMu.Lock()
	cut, err := d.wal.Rotate()
	d.ckptMu.Unlock()
	if err != nil {
		return CheckpointStats{}, err
	}

	// Tiering runs between the rotation and the snapshot: partitions
	// are durable (writeFileAtomic) before the covered hot records
	// are evicted, the snapshot persists the post-eviction hot state,
	// and only then are the WAL segments retired. A crash anywhere in
	// that sequence leaves every acked record in at least one of
	// {WAL, snapshot, partition}.
	var compaction CompactionStats
	if d.tiered != nil {
		compaction, err = d.compact()
		if err != nil {
			return CheckpointStats{Compaction: compaction}, err
		}
	}

	if err := writeFileAtomic(filepath.Join(d.dir, snapshotName), d.wrapFile, d.m.Save); err != nil {
		return CheckpointStats{}, fmt.Errorf("store: checkpoint snapshot: %w", err)
	}
	retired, err := d.wal.Retire(cut)
	if err != nil {
		return CheckpointStats{}, err
	}
	stats := CheckpointStats{
		Records:         d.m.Len(),
		SegmentsRetired: retired,
		Duration:        time.Since(start),
		Compaction:      compaction,
	}
	metCheckpoints.Inc()
	metCheckpointDur.Observe(stats.Duration.Seconds())
	return stats, nil
}

// StartCheckpointLoop checkpoints every interval (and, under the
// SyncInterval policy, fsyncs the WAL every syncEvery) until Close.
// onErr, when non-nil, observes background failures.
func (d *Durable) StartCheckpointLoop(interval, syncEvery time.Duration, onErr func(error)) {
	if syncEvery <= 0 {
		syncEvery = time.Second
	}
	if interval <= 0 {
		interval = time.Minute
	}
	if !d.loopStarted.CompareAndSwap(false, true) {
		return
	}
	go func() {
		defer close(d.done)
		ckpt := time.NewTicker(interval)
		defer ckpt.Stop()
		sync := time.NewTicker(syncEvery)
		defer sync.Stop()
		for {
			select {
			case <-d.stopCh:
				return
			case <-sync.C:
				if err := d.Sync(); err != nil && onErr != nil {
					onErr(err)
				}
			case <-ckpt.C:
				if _, err := d.Checkpoint(); err != nil && onErr != nil {
					onErr(err)
				}
			}
		}
	}()
}

// Close takes a final checkpoint (so a clean shutdown restarts from
// the snapshot alone) and closes the WAL.
func (d *Durable) Close() error {
	d.stopLoop()
	_, cerr := d.Checkpoint()
	werr := d.wal.Close()
	if cerr != nil {
		return cerr
	}
	return werr
}

// Abort drops the durable store without checkpointing or syncing —
// the crash-point harness's stand-in for the process dying. On-disk
// state is left exactly as the (possibly failed) writes left it.
func (d *Durable) Abort() {
	d.stopLoop()
	d.wal.abort()
}

func (d *Durable) stopLoop() {
	d.stopOnce.Do(func() {
		close(d.stopCh)
		if d.loopStarted.Load() {
			<-d.done
		}
	})
}
