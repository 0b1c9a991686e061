package store

import (
	"math/bits"

	"vibepm/internal/gencache"
)

// Pyramid is a multi-resolution min-max index over one extracted
// series: level k answers "index of the first minimum / first maximum
// in any window of 2^k points" in O(1), so a min-max downsample of the
// whole series becomes one pair of level lookups per output bucket
// instead of an O(n) scan. Build cost is O(n log n) once; the
// TrendCache amortizes that across queries by keying the pyramid on
// the series generation.
//
// Downsample reproduces DownsampleMinMax exactly, including its
// first-occurrence tie-breaking, bucket boundaries, and edge cases —
// the equality the pyramid tests pin on random series.
type Pyramid struct {
	series []SeriesPoint
	// minIdx[k][i] / maxIdx[k][i] hold the index of the first
	// minimum/maximum in [i, i+2^(k+1)): level 0 covers windows of 2.
	minIdx [][]int32
	maxIdx [][]int32
}

// NewPyramid builds the index over series. The slice is retained;
// callers must not mutate it afterwards.
func NewPyramid(series []SeriesPoint) *Pyramid {
	p := &Pyramid{series: series}
	n := len(series)
	levels := 0
	for size := 2; size <= n; size *= 2 {
		levels++
	}
	p.minIdx = make([][]int32, levels)
	p.maxIdx = make([][]int32, levels)
	for k := 0; k < levels; k++ {
		half := 1 << k // window size of the previous level
		width := 2 * half
		mins := make([]int32, n-width+1)
		maxs := make([]int32, n-width+1)
		for i := range mins {
			var la, ra, lb, rb int32
			if k == 0 {
				la, ra = int32(i), int32(i+1)
				lb, rb = la, ra
			} else {
				la, ra = p.minIdx[k-1][i], p.minIdx[k-1][i+half]
				lb, rb = p.maxIdx[k-1][i], p.maxIdx[k-1][i+half]
			}
			// First occurrence wins ties, so the left child is kept
			// unless the right child is strictly more extreme.
			if series[ra].Value < series[la].Value {
				mins[i] = ra
			} else {
				mins[i] = la
			}
			if series[rb].Value > series[lb].Value {
				maxs[i] = rb
			} else {
				maxs[i] = lb
			}
		}
		p.minIdx[k] = mins
		p.maxIdx[k] = maxs
	}
	return p
}

// Len returns the length of the indexed series.
func (p *Pyramid) Len() int { return len(p.series) }

// rangeMinMax returns the indices of the first minimum and first
// maximum in [lo, hi) by combining two overlapping power-of-two
// windows. hi > lo.
func (p *Pyramid) rangeMinMax(lo, hi int) (minAt, maxAt int) {
	n := hi - lo
	if n == 1 {
		return lo, lo
	}
	// Largest k with 2^(k+1) <= n; level k covers windows of 2^(k+1).
	k := bits.Len(uint(n)) - 2
	width := 2 << k
	la, ra := int(p.minIdx[k][lo]), int(p.minIdx[k][hi-width])
	lb, rb := int(p.maxIdx[k][lo]), int(p.maxIdx[k][hi-width])
	minAt, maxAt = la, lb
	// The right window's winner loses ties: any shared minimum value
	// inside the overlap is already reported (earlier) by the left
	// window, so a strict comparison preserves first-occurrence.
	if p.series[ra].Value < p.series[la].Value {
		minAt = ra
	}
	if p.series[rb].Value > p.series[lb].Value {
		maxAt = rb
	}
	return minAt, maxAt
}

// Downsample reduces the indexed series to at most maxPoints,
// producing exactly the same output as DownsampleMinMax over the same
// series.
func (p *Pyramid) Downsample(maxPoints int) []SeriesPoint {
	n := len(p.series)
	if maxPoints <= 0 || n <= maxPoints {
		out := make([]SeriesPoint, n)
		copy(out, p.series)
		return out
	}
	if maxPoints == 1 {
		_, maxAt := p.rangeMinMax(0, n)
		return []SeriesPoint{p.series[maxAt]}
	}
	buckets := maxPoints / 2
	out := make([]SeriesPoint, 0, buckets*2)
	for b := 0; b < buckets; b++ {
		lo := b * n / buckets
		hi := (b + 1) * n / buckets
		if hi <= lo {
			continue
		}
		minAt, maxAt := p.rangeMinMax(lo, hi)
		first, second := minAt, maxAt
		if first > second {
			first, second = second, first
		}
		out = append(out, p.series[first])
		if second != first {
			out = append(out, p.series[second])
		}
	}
	return out
}

// trendKey identifies one cached pyramid: a pump's series viewed
// through one scalar metric.
type trendKey struct {
	pumpID int
	metric string
}

// maxCachedPyramids bounds the pyramid cache; past it a new
// (pump, metric) evicts an arbitrary other one.
const maxCachedPyramids = 4096

// TrendCache caches per-(pump, metric) downsample pyramids keyed by
// the series generation: a cached pyramid is served until the pump's
// series mutates, then rebuilt lazily on the next request. Safe for
// concurrent use.
type TrendCache struct {
	pyramids *gencache.Cache[trendKey, uint64, *Pyramid]
}

// NewTrendCache returns an empty cache.
func NewTrendCache() *TrendCache {
	return &TrendCache{pyramids: gencache.New[trendKey, uint64, *Pyramid](maxCachedPyramids)}
}

// Pyramid returns the pyramid over pump pumpID's series extracted with
// fn, building (and caching) it only when the series generation moved
// since the cached build. The returned generation is the one the
// pyramid was built against — response caches should key on it.
func (c *TrendCache) Pyramid(m *Measurements, pumpID int, metric string, fn func(*Record) float64) (*Pyramid, uint64) {
	// Read the generation before the records: if an append lands in
	// between, the cache entry is tagged with the older generation and
	// the next request rebuilds — stale tags are conservative, never
	// wrong.
	gen := m.Generation(pumpID)
	pyr, hit, _ := c.pyramids.Get(trendKey{pumpID: pumpID, metric: metric}, gen, func() (*Pyramid, uint64, error) {
		return NewPyramid(ExtractSeries(m.All(pumpID), fn)), gen, nil
	})
	if hit {
		metPyramidHits.Inc()
	} else {
		metPyramidMisses.Inc()
	}
	return pyr, gen
}
