package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// ColdStore manages the directory of compressed cold partitions the
// compactor writes. Partitions are immutable once renamed into place
// and cover disjoint, ascending [from, to) spans; the store's coverage
// bound UpTo is the highest ToDays present. Safe for concurrent use:
// reads take a snapshot of the partition list under an RWMutex, and a
// generation counter advances whenever the list changes so read-side
// caches (merged trend pyramids, serialized responses, ETags) can key
// on it exactly like the hot store's generations.
type ColdStore struct {
	dir string

	mu    sync.RWMutex
	parts []*Partition // sorted by FromDays
	upTo  float64      // max ToDays ever observed, survives retention drops

	gen atomic.Uint64
}

// ColdStats is a point-in-time summary of the cold tier.
type ColdStats struct {
	// Partitions and Records count what is currently on disk.
	Partitions int `json:"partitions"`
	Records    int `json:"records"`
	// CompressedBytes is the on-disk footprint; RawBytes is what the
	// same records would cost in the raw snapshot encoding.
	CompressedBytes int64 `json:"compressed_bytes"`
	RawBytes        int64 `json:"raw_bytes"`
	// Ratio is RawBytes/CompressedBytes (0 when empty).
	Ratio float64 `json:"compression_ratio"`
	// OldestDays is the retention horizon — the FromDays of the oldest
	// partition still held. UpToDays is the coverage bound: every
	// compacted record lies below it.
	OldestDays float64 `json:"oldest_days"`
	UpToDays   float64 `json:"up_to_days"`
}

// OpenColdStore opens (creating if needed) the partition directory,
// validating every partition's checksum and discarding leftover temp
// files from interrupted compactions.
func OpenColdStore(dir string) (*ColdStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: cold dir: %w", err)
	}
	if err := removeStaleTemps(dir); err != nil {
		return nil, fmt.Errorf("store: cold dir: %w", err)
	}
	c := &ColdStore{dir: dir}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: cold dir: %w", err)
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() {
			continue
		}
		if !strings.HasSuffix(name, partitionSuffix) {
			continue
		}
		p, err := OpenPartition(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("store: partition %s: %w", name, err)
		}
		c.parts = append(c.parts, p)
		if p.ToDays() > c.upTo {
			c.upTo = p.ToDays()
		}
	}
	sort.Slice(c.parts, func(a, b int) bool { return c.parts[a].FromDays() < c.parts[b].FromDays() })
	c.gen.Store(1)
	return c, nil
}

// Dir returns the partition directory.
func (c *ColdStore) Dir() string { return c.dir }

// Generation returns a counter that advances whenever the partition
// list changes (compaction adds, retention drops).
func (c *ColdStore) Generation() uint64 { return c.gen.Load() }

// UpTo returns the cold coverage bound: every record the compactor has
// ever moved cold has ServiceDays < UpTo. Retention drops do not lower
// it — dropped history is gone, not hot again.
func (c *ColdStore) UpTo() float64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.upTo
}

// partition naming: part-<fromMillis>-<toMillis>.cold with fixed-width
// non-negative fields, so lexicographic directory order is time order.
func partitionName(fromDays, toDays float64) string {
	return fmt.Sprintf("part-%013d-%013d%s", int64(fromDays*1000), int64(toDays*1000), partitionSuffix)
}

// add registers a freshly-renamed partition.
func (c *ColdStore) add(p *Partition) {
	c.mu.Lock()
	c.parts = append(c.parts, p)
	sort.Slice(c.parts, func(a, b int) bool { return c.parts[a].FromDays() < c.parts[b].FromDays() })
	if p.ToDays() > c.upTo {
		c.upTo = p.ToDays()
	}
	c.mu.Unlock()
	c.gen.Add(1)
}

// snapshotParts returns the current partition list; the slice is fresh,
// the partitions are shared (and immutable).
func (c *ColdStore) snapshotParts() []*Partition {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*Partition, len(c.parts))
	copy(out, c.parts)
	return out
}

// Partitions returns the open partitions in time order.
func (c *ColdStore) Partitions() []*Partition { return c.snapshotParts() }

// HasPump reports whether any partition holds records of pumpID.
func (c *ColdStore) HasPump(pumpID int) bool {
	for _, p := range c.snapshotParts() {
		if p.pumps[pumpID] != nil {
			return true
		}
	}
	return false
}

// Contains reports whether some partition holds a record of pumpID at
// exactly serviceDays — the compactor's eviction predicate.
func (c *ColdStore) Contains(pumpID int, serviceDays float64) bool {
	for _, p := range c.snapshotParts() {
		if serviceDays < p.FromDays() || serviceDays >= p.ToDays() {
			continue
		}
		return p.Contains(pumpID, serviceDays)
	}
	return false
}

// TrendSeries concatenates pumpID's metric series across every
// partition, in time order (partitions cover disjoint ascending spans).
func (c *ColdStore) TrendSeries(pumpID int, metric string) []SeriesPoint {
	var out []SeriesPoint
	for _, p := range c.snapshotParts() {
		out = append(out, p.TrendSeries(pumpID, metric)...)
	}
	return out
}

// Records decompresses every cold record of pumpID, in time order.
func (c *ColdStore) Records(pumpID int) ([]*Record, error) {
	var out []*Record
	for _, p := range c.snapshotParts() {
		recs, err := p.Records(pumpID)
		if err != nil {
			return nil, err
		}
		out = append(out, recs...)
	}
	return out, nil
}

// Pumps lists every pump id with cold records, ascending.
func (c *ColdStore) Pumps() []int {
	seen := make(map[int]bool)
	for _, p := range c.snapshotParts() {
		for _, id := range p.Pumps() {
			seen[id] = true
		}
	}
	ids := make([]int, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// Stats summarizes the cold tier.
func (c *ColdStore) Stats() ColdStats {
	parts := c.snapshotParts()
	st := ColdStats{Partitions: len(parts), UpToDays: c.UpTo()}
	for i, p := range parts {
		st.Records += p.Len()
		st.CompressedBytes += p.CompressedBytes()
		st.RawBytes += p.RawBytes()
		if i == 0 {
			st.OldestDays = p.FromDays()
		}
	}
	if st.CompressedBytes > 0 {
		st.Ratio = float64(st.RawBytes) / float64(st.CompressedBytes)
	}
	return st
}

// ApplyRetention drops whole partitions, oldest first, until both
// policy limits hold: no partition's span ends more than MaxAgeDays
// before latestDays, and the total compressed footprint fits MaxBytes.
// Each drop is one os.Remove — atomic at the filesystem level; a crash
// between drops leaves a valid store with more history, never a broken
// one. Returns how many partitions were dropped.
func (c *ColdStore) ApplyRetention(policy RetentionPolicy, latestDays float64) (int, error) {
	if policy.MaxAgeDays <= 0 && policy.MaxBytes <= 0 {
		return 0, nil
	}
	dropped := 0
	for {
		c.mu.Lock()
		if len(c.parts) == 0 {
			c.mu.Unlock()
			break
		}
		oldest := c.parts[0]
		var total int64
		for _, p := range c.parts {
			total += p.CompressedBytes()
		}
		drop := (policy.MaxAgeDays > 0 && latestDays-oldest.ToDays() > policy.MaxAgeDays) ||
			(policy.MaxBytes > 0 && total > policy.MaxBytes)
		if !drop {
			c.mu.Unlock()
			break
		}
		if err := os.Remove(oldest.path); err != nil && !os.IsNotExist(err) {
			c.mu.Unlock()
			return dropped, fmt.Errorf("store: retention drop: %w", err)
		}
		c.parts = c.parts[1:]
		c.mu.Unlock()
		c.gen.Add(1)
		dropped++
		metColdPartitionsDropped.Inc()
	}
	return dropped, nil
}
