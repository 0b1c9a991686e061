package store

import "vibepm/internal/gencache"

// Pyramid is one extracted (pump, metric) series under its old name,
// kept, like TrendCache, because the frozen benchmark/layers.go calls
// it. It indexes nothing: Downsample is DownsampleMinMax, the call the
// trend endpoint makes on a body miss, so the benchmark's spans over
// TrendCache.Pyramid and Downsample time what a server runs.
type Pyramid struct {
	series []SeriesPoint
}

// Len returns the length of the series.
func (p *Pyramid) Len() int { return len(p.series) }

// Downsample is DownsampleMinMax over the series.
func (p *Pyramid) Downsample(maxPoints int) []SeriesPoint {
	return DownsampleMinMax(p.series, maxPoints)
}

// trendKey identifies one cached series: a pump's records viewed
// through one scalar metric.
type trendKey struct {
	pumpID int
	metric string
}

// maxCachedPyramids bounds the cache; past it a new (pump, metric)
// evicts an arbitrary other one.
const maxCachedPyramids = 4096

// TrendCache caches per-(pump, metric) extracted series keyed by the
// series generation. No server holds one. Safe for concurrent use.
type TrendCache struct {
	pyramids *gencache.Cache[trendKey, uint64, *Pyramid]
}

// NewTrendCache returns an empty cache.
func NewTrendCache() *TrendCache {
	return &TrendCache{pyramids: gencache.New[trendKey, uint64, *Pyramid](maxCachedPyramids)}
}

// Pyramid returns pump pumpID's series extracted with fn, re-extracting
// only when the series generation moved, and the generation it was
// extracted at. The generation is read before the records, so an
// append in between leaves the entry tagged older than its contents:
// one extra extraction later, never a stale answer.
func (c *TrendCache) Pyramid(m *Measurements, pumpID int, metric string, fn func(*Record) float64) (*Pyramid, uint64) {
	gen := m.Generation(pumpID)
	pyr, _, _ := c.pyramids.Get(trendKey{pumpID: pumpID, metric: metric}, gen, func() (*Pyramid, uint64, error) {
		return &Pyramid{series: ExtractSeries(m.All(pumpID), fn)}, gen, nil
	})
	return pyr, gen
}
