package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"sync/atomic"
)

// shardBits selects the power-of-two shard count. 16 shards keep
// write contention negligible for fleets far larger than the paper's
// 12 pumps while costing four words of overhead per empty shard.
const (
	shardBits  = 4
	shardCount = 1 << shardBits
	shardMask  = shardCount - 1
)

// series is one pump's ordered record slice plus its generation — a
// counter bumped on every mutation so read-side caches (cleaned
// trends, serialized HTTP responses) can invalidate precisely on
// append instead of re-checking contents.
type series struct {
	recs []*Record
	gen  uint64
}

// shard is one lock domain of the store: pumps are distributed across
// shards by id, so ingestion for one pump never contends with reads or
// writes of pumps in other shards.
type shard struct {
	mu     sync.RWMutex
	byPump map[int]*series
}

// Measurements is the embedded time-series store for vibration records:
// a set keyed by (pump, service time), indexed by pump and ordered by
// service time. It is safe for concurrent use: the store is sharded by
// pump id with one RWMutex per shard, and the aggregate counters are
// atomics, so Len and the generation counters never serialize against
// writers in other shards.
type Measurements struct {
	shards [shardCount]shard
	count  atomic.Int64
	// genSeq issues store-wide unique generation values; totalGen is a
	// cheap store-wide change counter for whole-fleet caches.
	genSeq   atomic.Uint64
	totalGen atomic.Uint64
}

// NewMeasurements returns an empty store.
func NewMeasurements() *Measurements {
	m := &Measurements{}
	for i := range m.shards {
		m.shards[i].byPump = make(map[int]*series)
	}
	return m
}

func (m *Measurements) shardFor(pumpID int) *shard {
	return &m.shards[uint(pumpID)&shardMask]
}

// seriesLocked returns (creating if needed) the series of pumpID.
// Caller holds the shard's write lock.
func (sh *shard) seriesLocked(pumpID int) *series {
	s := sh.byPump[pumpID]
	if s == nil {
		s = &series{}
		sh.byPump[pumpID] = s
	}
	return s
}

// bump marks a mutation of s: the series generation takes the next
// store-wide sequence value and the store-wide change counter advances.
func (m *Measurements) bump(s *series) {
	s.gen = m.genSeq.Add(1)
	m.totalGen.Add(1)
}

// Add is AddUnique with the result dropped.
func (m *Measurements) Add(rec *Record) { m.AddUnique(rec) }

// AddUnique, the store's one insert, stores rec by reference (callers
// must not mutate it afterwards) unless the pump already holds a record
// at the same service time, reporting whether the insert happened. A
// refused record leaves the held one in place and no generation moved,
// so a transport layer that re-delivers a measurement (duplicate
// transfer, retry racing a success) cannot inflate the series, and a
// store in memory holds what Save → Load, WAL replay or a tiered reopen
// of it would.
func (m *Measurements) AddUnique(rec *Record) bool {
	sh := m.shardFor(rec.PumpID)
	sh.mu.Lock()
	s := sh.seriesLocked(rec.PumpID)
	recs := s.recs
	if n := len(recs); n == 0 || recs[n-1].ServiceDays < rec.ServiceDays {
		s.recs = append(recs, rec)
	} else {
		i := sort.Search(len(recs), func(i int) bool {
			return recs[i].ServiceDays >= rec.ServiceDays
		})
		if i < len(recs) && recs[i].ServiceDays == rec.ServiceDays {
			sh.mu.Unlock()
			metDupSuppress.Inc()
			return false
		}
		recs = append(recs, nil)
		copy(recs[i+1:], recs[i:])
		recs[i] = rec
		s.recs = recs
	}
	m.bump(s)
	sh.mu.Unlock()
	m.count.Add(1)
	metRecordsAdded.Inc()
	metRecordBytes.Add(rawBytes(rec))
	return true
}

// Len returns the total number of stored records. It reads one atomic —
// no shard is locked.
func (m *Measurements) Len() int {
	return int(m.count.Load())
}

// Generation returns the series generation of one pump: 0 for a pump
// with no records, otherwise a value that changes on every mutation of
// that pump's series. Caches keyed on it invalidate precisely when the
// series changes.
func (m *Measurements) Generation(pumpID int) uint64 {
	sh := m.shardFor(pumpID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	if s := sh.byPump[pumpID]; s != nil {
		return s.gen
	}
	return 0
}

// GenerationTotal returns a store-wide change counter: it advances on
// every mutation of any series, so fleet-level caches can key on it.
func (m *Measurements) GenerationTotal() uint64 {
	return m.totalGen.Load()
}

// Pumps lists the pump ids with at least one record, ascending.
func (m *Measurements) Pumps() []int {
	var ids []int
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for id, s := range sh.byPump {
			if len(s.recs) > 0 {
				ids = append(ids, id)
			}
		}
		sh.mu.RUnlock()
	}
	sort.Ints(ids)
	return ids
}

// Query returns the records of one pump whose service time lies in
// [fromDays, toDays], in time order. The returned slice is fresh; the
// records are shared.
func (m *Measurements) Query(pumpID int, fromDays, toDays float64) []*Record {
	sh := m.shardFor(pumpID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var recs []*Record
	if s := sh.byPump[pumpID]; s != nil {
		recs = s.recs
	}
	if n := len(recs); n == 0 || (fromDays <= recs[0].ServiceDays && recs[n-1].ServiceDays <= toDays) {
		// Whole-series queries (the REST layer's default open range)
		// skip both binary searches.
		out := make([]*Record, len(recs))
		copy(out, recs)
		return out
	}
	lo := sort.Search(len(recs), func(i int) bool {
		return recs[i].ServiceDays >= fromDays
	})
	hi := sort.Search(len(recs), func(i int) bool {
		return recs[i].ServiceDays > toDays
	})
	out := make([]*Record, hi-lo)
	copy(out, recs[lo:hi])
	return out
}

// All returns every record of one pump in time order.
func (m *Measurements) All(pumpID int) []*Record {
	sh := m.shardFor(pumpID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var recs []*Record
	if s := sh.byPump[pumpID]; s != nil {
		recs = s.recs
	}
	out := make([]*Record, len(recs))
	copy(out, recs)
	return out
}

// MaxServiceDays returns the largest service time held by any series,
// or 0 when the store is empty. The compactor anchors its hot-window
// cutoff on it.
func (m *Measurements) MaxServiceDays() float64 {
	var maxDays float64
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for _, s := range sh.byPump {
			if n := len(s.recs); n > 0 && s.recs[n-1].ServiceDays > maxDays {
				maxDays = s.recs[n-1].ServiceDays
			}
		}
		sh.mu.RUnlock()
	}
	return maxDays
}

// EvictBefore removes every record with ServiceDays < cutoffDays for
// which covered reports true, returning how many were removed. The
// compactor uses it to drop hot records that a cold partition now
// holds; records below the cutoff that no partition covers (late
// arrivals landing behind an already-written partition) are kept, so
// eviction can never lose data. Every mutated series gets a fresh
// generation.
func (m *Measurements) EvictBefore(cutoffDays float64, covered func(pumpID int, serviceDays float64) bool) int {
	evicted := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		for id, s := range sh.byPump {
			recs := s.recs
			n := sort.Search(len(recs), func(i int) bool {
				return recs[i].ServiceDays >= cutoffDays
			})
			if n == 0 {
				continue
			}
			kept := recs[:0:0]
			removed := 0
			for _, rec := range recs[:n] {
				if covered(id, rec.ServiceDays) {
					removed++
				} else {
					kept = append(kept, rec)
				}
			}
			if removed == 0 {
				continue
			}
			s.recs = append(kept, recs[n:]...)
			m.bump(s)
			evicted += removed
		}
		sh.mu.Unlock()
	}
	m.count.Add(int64(-evicted))
	return evicted
}

// Latest returns the most recent record of a pump, or nil.
func (m *Measurements) Latest(pumpID int) *Record {
	sh := m.shardFor(pumpID)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s := sh.byPump[pumpID]
	if s == nil || len(s.recs) == 0 {
		return nil
	}
	return s.recs[len(s.recs)-1]
}

// A store file — the checkpoint's snapshot.bin, vibegen's
// measurements.bin — is storeHeader, the record count as a
// little-endian uint64, then one WAL frame (wal.go) per record: the
// stream a log segment holds behind its own header, read back by the
// same replayFrames. Format 1 held bare records with no checksum.
var storeHeader = []byte("VPMSTORE2\n")

// ErrBadHeader is returned when loading a file that is not a
// measurement store.
var ErrBadHeader = errors.New("store: bad store file header")

// snapshot collects record references per pump, holding each shard's
// read lock only while copying slice headers — never across I/O or
// encoding. Each series is internally consistent; the cross-shard view
// is near-point-in-time.
func (m *Measurements) snapshot() (ids []int, byPump map[int][]*Record, total int) {
	byPump = make(map[int][]*Record)
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.RLock()
		for id, s := range sh.byPump {
			if len(s.recs) == 0 {
				continue
			}
			recs := make([]*Record, len(s.recs))
			copy(recs, s.recs)
			byPump[id] = recs
			ids = append(ids, id)
			total += len(recs)
		}
		sh.mu.RUnlock()
	}
	sort.Ints(ids)
	return ids, byPump, total
}

// Save writes the entire store to w in the store file format. The
// store is snapshotted under brief per-shard read locks; the encoding
// and flushing happen outside every lock, so ingestion is never blocked
// on I/O.
func (m *Measurements) Save(w io.Writer) error {
	ids, byPump, total := m.snapshot()
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(storeHeader); err != nil {
		return err
	}
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], uint64(total))
	if _, err := bw.Write(count[:]); err != nil {
		return err
	}
	buf := walBufPool.Get().(*bytes.Buffer)
	defer walBufPool.Put(buf)
	for _, id := range ids {
		for _, rec := range byPump[id] {
			buf.Reset()
			frame, err := frameRecord(buf, rec)
			if err != nil {
				return err
			}
			if _, err := bw.Write(frame); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a store previously written by Save, replacing the
// receiver's contents. Unlike a log segment, whose torn tail was never
// acknowledged and is cut off, a store file is written whole or not at
// all (WriteFileAtomic): a frame that fails its CRC or a count that is
// not met is an error, and the receiver stays as it was.
func (m *Measurements) Load(r io.Reader) error { return m.load(r, 0) }

// load is Load with the frame verification spread over workers (<= 0
// means GOMAXPROCS); the result is the same at every count.
func (m *Measurements) load(r io.Reader, workers int) error {
	br := bufio.NewReaderSize(r, 1<<16)
	hdr := make([]byte, len(storeHeader)+8)
	if _, err := io.ReadFull(br, hdr); err != nil {
		return fmt.Errorf("store: read header: %w", err)
	}
	if !bytes.Equal(hdr[:len(storeHeader)], storeHeader) {
		if bytes.HasPrefix(hdr, []byte("VPMSTORE1\n")) {
			return fmt.Errorf("%w: format 1 (no checksums) is no longer read; write the file again", ErrBadHeader)
		}
		return ErrBadHeader
	}
	n := binary.LittleEndian.Uint64(hdr[len(storeHeader):])
	fresh := NewMeasurements()
	// The error replayFrames can return is apply's, and this one has none.
	_, records, truncated, _ := replayFrames(br, 0, func(rec *Record) error {
		fresh.AddUnique(rec)
		return nil
	}, workers)
	if truncated {
		return fmt.Errorf("store: record %d of %d: torn or corrupt frame", records, n)
	}
	if uint64(records) != n {
		return fmt.Errorf("store: file holds %d records, its header counts %d", records, n)
	}
	// Swap the verified series in shard by shard. Each takes a generation
	// from the receiver's own sequence, so caches built over the old
	// contents invalidate.
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.byPump = fresh.shards[i].byPump
		for _, s := range sh.byPump {
			m.bump(s)
		}
		sh.mu.Unlock()
	}
	m.count.Store(int64(fresh.Len()))
	metRecordsLoad.Add(uint64(fresh.Len()))
	return nil
}

// SaveFile writes the store to path atomically (WriteFileAtomic): a
// crash mid-save can never truncate or corrupt an existing file.
func (m *Measurements) SaveFile(path string) error {
	return WriteFileAtomic(path, m.Save)
}

// LoadFile reads a store from path.
func (m *Measurements) LoadFile(path string) error { return m.loadFile(path, 0) }

func (m *Measurements) loadFile(path string, workers int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.load(f, workers)
}
