package store

import (
	"fmt"
	"math"
	"path/filepath"
	"strconv"
	"strings"
)

// The compactor is the bridge between the hot tier (in-memory store +
// snapshot + WAL) and the cold tier (compressed partitions). It runs
// inside Durable.Checkpoint, between the WAL rotation and the snapshot:
//
//	rotate (cut) → compact (write partitions, evict hot) → snapshot → retire
//
// That ordering is the whole crash-safety argument. Partitions land
// atomically (writeFileAtomic) before any hot record is evicted; the
// snapshot that no longer holds the evicted records is written only
// after the partitions covering them are durable; and the WAL segments
// are retired only after that snapshot landed. At every crash point an
// acked record therefore lives in at least one of {WAL, snapshot,
// partition}; recovery replays hot state and the cold store reopens the
// renamed partitions, and the read path dedupes any overlap (a crash
// after rename but before snapshot leaves records in both tiers until
// the next compaction evicts them).

// ColdMetric names one scalar feature persisted per record at
// compaction time, so cold trend queries never decompress waveforms.
// Fn must be the same function the hot trend path uses — the hot/cold
// byte-identical equivalence depends on it. The metric functions are
// injected (rather than imported) because store sits below the
// transform layer.
type ColdMetric struct {
	Name string
	Fn   func(*Record) float64
}

// RetentionPolicy bounds the cold tier. Zero values disable a limit.
type RetentionPolicy struct {
	// MaxAgeDays drops partitions whose span ended more than this many
	// days before the newest record in the system.
	MaxAgeDays float64
	// MaxBytes drops oldest partitions while the compressed footprint
	// exceeds it.
	MaxBytes int64
}

// ParseRetention parses the -retention flag syntax: comma-separated
// limits, e.g. "age=90d", "bytes=512MB", "age=30d,bytes=1GB". Age is in
// days (a bare number or an Nd suffix); bytes accept B/KB/MB/GB (1024
// multiples). Empty input means no retention.
func ParseRetention(s string) (RetentionPolicy, error) {
	var pol RetentionPolicy
	s = strings.TrimSpace(s)
	if s == "" {
		return pol, nil
	}
	for _, field := range strings.Split(s, ",") {
		key, val, ok := strings.Cut(strings.TrimSpace(field), "=")
		if !ok {
			return pol, fmt.Errorf("store: retention %q: want key=value", field)
		}
		val = strings.TrimSpace(val)
		switch strings.TrimSpace(key) {
		case "age":
			days, err := strconv.ParseFloat(strings.TrimSuffix(val, "d"), 64)
			if err != nil || days <= 0 {
				return pol, fmt.Errorf("store: retention age %q: want a positive day count like 90d", val)
			}
			pol.MaxAgeDays = days
		case "bytes":
			n, err := parseByteSize(val)
			if err != nil {
				return pol, err
			}
			pol.MaxBytes = n
		default:
			return pol, fmt.Errorf("store: retention key %q: want age or bytes", key)
		}
	}
	return pol, nil
}

func parseByteSize(s string) (int64, error) {
	mult := int64(1)
	upper := strings.ToUpper(s)
	for _, suf := range []struct {
		name string
		m    int64
	}{{"GB", 1 << 30}, {"MB", 1 << 20}, {"KB", 1 << 10}, {"B", 1}} {
		if strings.HasSuffix(upper, suf.name) {
			mult = suf.m
			upper = strings.TrimSuffix(upper, suf.name)
			break
		}
	}
	n, err := strconv.ParseFloat(strings.TrimSpace(upper), 64)
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("store: retention bytes %q: want a positive size like 512MB", s)
	}
	return int64(n * float64(mult)), nil
}

// String renders the policy in ParseRetention syntax.
func (p RetentionPolicy) String() string {
	var parts []string
	if p.MaxAgeDays > 0 {
		parts = append(parts, fmt.Sprintf("age=%gd", p.MaxAgeDays))
	}
	if p.MaxBytes > 0 {
		parts = append(parts, fmt.Sprintf("bytes=%dB", p.MaxBytes))
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, ",")
}

// Enabled reports whether any limit is set.
func (p RetentionPolicy) Enabled() bool { return p.MaxAgeDays > 0 || p.MaxBytes > 0 }

// TieredOptions configures the cold tier of a durable store.
type TieredOptions struct {
	// ColdDir is the partition directory (default <dir>/cold).
	ColdDir string
	// HotWindowDays is how much recent history stays hot (default 30).
	// Records older than latest-HotWindowDays are eligible for
	// compaction.
	HotWindowDays float64
	// PartitionDays is the time span of one partition (default 7).
	PartitionDays float64
	// Metrics are the scalar series persisted per partition.
	Metrics []ColdMetric
	// Retention bounds the cold tier; zero keeps everything.
	Retention RetentionPolicy
}

func (t *TieredOptions) withDefaults(dir string) TieredOptions {
	out := *t
	if out.ColdDir == "" {
		out.ColdDir = filepath.Join(dir, "cold")
	}
	if out.HotWindowDays <= 0 {
		out.HotWindowDays = 30
	}
	if out.PartitionDays <= 0 {
		out.PartitionDays = 7
	}
	return out
}

// CompactionStats reports one compaction pass.
type CompactionStats struct {
	// PartitionsWritten is how many new partitions were renamed in.
	PartitionsWritten int
	// RecordsCompacted is how many records those partitions hold.
	RecordsCompacted int
	// RecordsEvicted is how many hot records were dropped because a
	// partition now covers them (≥ RecordsCompacted only after a prior
	// crash left overlap; normally equal).
	RecordsEvicted int
	// PartitionsDropped is how many partitions retention removed.
	PartitionsDropped int
}

// partitionFloor aligns day down to a partition boundary.
func partitionFloor(day, span float64) float64 {
	if day <= 0 {
		return 0
	}
	return math.Floor(day/span) * span
}

// compact runs one compaction pass: move every hot record older than
// the hot window into compressed partitions, evict the covered hot
// records, and apply retention. Called from Checkpoint (serialized by
// d.checkpointing) after the WAL rotation and before the snapshot.
func (d *Durable) compact() (CompactionStats, error) {
	var stats CompactionStats
	t := d.tiered
	latest := d.m.MaxServiceDays()
	cutoff := partitionFloor(latest-t.HotWindowDays, t.PartitionDays)

	// Walk the uncovered spans below the cutoff. Starting at the cold
	// coverage bound makes compaction incremental and crash-idempotent:
	// records a previously renamed partition already holds are below
	// UpTo and can never be written into a second partition.
	for from := partitionFloor(d.cold.UpTo(), t.PartitionDays); from < cutoff; from += t.PartitionDays {
		to := from + t.PartitionDays
		if to > cutoff {
			to = cutoff
		}
		data := &PartitionData{FromDays: from, ToDays: to}
		for _, cm := range t.Metrics {
			data.Metrics = append(data.Metrics, cm.Name)
		}
		for _, id := range d.m.Pumps() {
			recs := d.m.Query(id, from, to)
			// Query's range is inclusive; a record at exactly `to`
			// belongs to the next span.
			for len(recs) > 0 && recs[len(recs)-1].ServiceDays >= to {
				recs = recs[:len(recs)-1]
			}
			if len(recs) == 0 {
				continue
			}
			pp := &PartitionPump{Records: recs}
			for range t.Metrics {
				pp.MetricValues = append(pp.MetricValues, make([]float64, 0, len(recs)))
			}
			for _, rec := range recs {
				for mi, cm := range t.Metrics {
					pp.MetricValues[mi] = append(pp.MetricValues[mi], cm.Fn(rec))
				}
			}
			if data.Pumps == nil {
				data.Pumps = make(map[int]*PartitionPump)
			}
			data.Pumps[id] = pp
		}
		if len(data.Pumps) == 0 {
			continue // empty span: nothing to persist, nothing to cover
		}
		path := filepath.Join(d.cold.Dir(), partitionName(from, to))
		if err := WritePartition(path, data, d.wrapFile); err != nil {
			return stats, fmt.Errorf("store: compact partition [%g,%g): %w", from, to, err)
		}
		// Reopen what was just renamed: this both registers the partition
		// and verifies the encode/decode round trip before anything hot
		// is evicted.
		part, err := OpenPartition(path)
		if err != nil {
			return stats, fmt.Errorf("store: compact reopen: %w", err)
		}
		d.cold.add(part)
		stats.PartitionsWritten++
		stats.RecordsCompacted += part.Len()
		metColdPartitionsWritten.Inc()
		metColdRecordsCompacted.Add(uint64(part.Len()))
		metColdBytesWritten.Add(uint64(part.CompressedBytes()))
		metColdRawBytesCompacted.Add(uint64(part.RawBytes()))
	}

	// Evict hot records a durable partition now covers. Covered-only
	// eviction means a late arrival below the coverage bound (or a
	// record whose span was empty when its partition was cut) stays hot
	// — and therefore stays in every snapshot — forever, counted here.
	if upTo := d.cold.UpTo(); upTo > 0 {
		stats.RecordsEvicted = d.m.EvictBefore(upTo, d.cold.Contains)
		metColdRecordsEvicted.Add(uint64(stats.RecordsEvicted))
		straggler := 0
		for _, id := range d.m.Pumps() {
			for _, rec := range d.m.Query(id, 0, upTo) {
				if rec.ServiceDays < upTo {
					straggler++
				}
			}
		}
		metColdHotStragglers.Set(float64(straggler))
	}

	if t.Retention.Enabled() {
		dropped, err := d.cold.ApplyRetention(t.Retention, latest)
		stats.PartitionsDropped = dropped
		if err != nil {
			return stats, err
		}
	}
	return stats, nil
}
