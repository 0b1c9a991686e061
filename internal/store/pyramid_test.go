package store

import (
	"math/rand"
	"testing"
)

func trendTestRecord(pumpID int, day, value float64) *Record {
	return &Record{
		PumpID:      pumpID,
		ServiceDays: day,
		ScaleG:      value,
		Raw:         [3][]int16{{1}, {1}, {1}},
	}
}

// TestTrendCacheInvalidatesOnAppend checks the cache serves the same
// extracted series until the series generation moves, then re-extracts.
func TestTrendCacheInvalidatesOnAppend(t *testing.T) {
	m := NewMeasurements()
	for i := 0; i < 50; i++ {
		m.Add(trendTestRecord(3, float64(i), float64(i)))
	}
	cache := NewTrendCache()
	metric := func(r *Record) float64 { return r.ScaleG }

	p1, g1 := cache.Pyramid(m, 3, "scale", metric)
	if p1.Len() != 50 {
		t.Fatalf("pyramid over %d points, want 50", p1.Len())
	}
	p2, g2 := cache.Pyramid(m, 3, "scale", metric)
	if p2 != p1 || g2 != g1 {
		t.Fatal("unchanged series must hit the cached pyramid")
	}

	m.Add(trendTestRecord(3, 50, 50))
	p3, g3 := cache.Pyramid(m, 3, "scale", metric)
	if p3 == p1 {
		t.Fatal("append must invalidate the cached pyramid")
	}
	if g3 == g1 {
		t.Fatal("generation must move on append")
	}
	if p3.Len() != 51 {
		t.Fatalf("rebuilt pyramid over %d points, want 51", p3.Len())
	}

	// A different metric over the same pump is a distinct cache entry.
	p4, _ := cache.Pyramid(m, 3, "days", func(r *Record) float64 { return r.ServiceDays })
	if p4 == p3 {
		t.Fatal("distinct metrics must not share a pyramid")
	}
}

// BenchmarkDirectDownsample10k is the trend endpoint's body-miss
// downsample: one min-max pass over a 10k-point series.
func BenchmarkDirectDownsample10k(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	series := make([]SeriesPoint, 10000)
	for i := range series {
		series[i] = SeriesPoint{ServiceDays: float64(i), Value: rng.NormFloat64()}
	}
	b.ReportAllocs()
	for b.Loop() {
		DownsampleMinMax(series, 256)
	}
}
