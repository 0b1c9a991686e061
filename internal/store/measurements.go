package store

import (
	"bufio"
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
// counter bumped on every mutation so read-side caches (downsample
// pyramids, serialized HTTP responses) can invalidate precisely on
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

// File format constants.
var storeHeader = []byte("VPMSTORE1\n")

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

// Save writes the entire store to w in the binary store format. The
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
	for _, id := range ids {
		for _, rec := range byPump[id] {
			if err := EncodeRecord(bw, rec); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// Load reads a store previously written by Save, replacing the
// receiver's contents.
func (m *Measurements) Load(r io.Reader) error {
	br := bufio.NewReader(r)
	hdr := make([]byte, len(storeHeader))
	if _, err := io.ReadFull(br, hdr); err != nil {
		return fmt.Errorf("store: read header: %w", err)
	}
	if string(hdr) != string(storeHeader) {
		return ErrBadHeader
	}
	var countBuf [8]byte
	if _, err := io.ReadFull(br, countBuf[:]); err != nil {
		return fmt.Errorf("store: read count: %w", err)
	}
	n := binary.LittleEndian.Uint64(countBuf[:])
	fresh := make(map[int][]*Record)
	var loaded int
	for i := uint64(0); i < n; i++ {
		rec, err := DecodeRecord(br)
		if err != nil {
			return fmt.Errorf("store: record %d: %w", i, err)
		}
		fresh[rec.PumpID] = append(fresh[rec.PumpID], rec)
		loaded++
	}
	m.installLoaded(fresh, loaded)
	return nil
}

// installLoaded replaces the store's contents with the decoded
// series. Both the sequential Load and the parallel LoadFileWorkers
// funnel through here — same sort, same shard replacement, same
// generation bumps — which is what makes their results byte-identical
// under a canonical Save. fresh must hold each pump's records in file
// order.
func (m *Measurements) installLoaded(fresh map[int][]*Record, loaded int) {
	for id := range fresh {
		recs := fresh[id]
		sort.Slice(recs, func(a, b int) bool {
			return recs[a].ServiceDays < recs[b].ServiceDays
		})
	}
	// Replace shard by shard; every replaced series gets a fresh
	// generation so caches built over the old contents invalidate.
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		sh.byPump = make(map[int]*series)
		sh.mu.Unlock()
	}
	for id, recs := range fresh {
		sh := m.shardFor(id)
		sh.mu.Lock()
		s := sh.seriesLocked(id)
		s.recs = recs
		m.bump(s)
		sh.mu.Unlock()
	}
	m.count.Store(int64(loaded))
	metRecordsLoad.Add(uint64(loaded))
}

// SaveFile writes the store to path atomically (writeFileAtomic): a
// crash mid-save can never truncate or corrupt an existing file.
func (m *Measurements) SaveFile(path string) error {
	return writeFileAtomic(path, nil, m.Save)
}

// LoadFile reads a store from path.
func (m *Measurements) LoadFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.Load(f)
}
