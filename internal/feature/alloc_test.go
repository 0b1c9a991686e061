//go:build !race

// The race detector makes sync.Pool drop a share of what is put back,
// so allocation ceilings over pooled scratch only hold without it.

package feature

import (
	"math"
	"testing"

	"vibepm/internal/dsp"
	"vibepm/internal/transform"
)

// TestDetectRecordAllocCeiling pins the pooled kernel: a steady-state
// classification allocates its returned Evidence slice and nothing per
// band, per spectrum or per axis (the ceiling leaves room for a GC
// emptying the scratch pool mid-run).
func TestDetectRecordAllocCeiling(t *testing.T) {
	recs, given := benchRecords(t, 1024)
	for name, specs := range map[string][]MachineSpec{"estimated": make([]MachineSpec, len(recs)), "given": given} {
		i := 0
		n := testing.AllocsPerRun(100, func() {
			DetectRecord(recs[i], specs[i])
			i = (i + 1) % len(recs)
		})
		if n > 6 {
			t.Errorf("DetectRecord (rotor %s): %.0f allocs/op, ceiling 6", name, n)
		}
	}
}

// TestVectorScoresAllocNothing: the Euclidean and Mahalanobis scores
// read the record's spectrum from pooled scratch — a score keeps one
// number, not the two 8 KB arrays a 1,024-sample spectrum fills — and
// equal the distance over transform.PSD bitwise.
func TestVectorScoresAllocNothing(t *testing.T) {
	b := trainHealthyBaseline(t, 3, 4)
	rec := captureRecord(t, wornPump(3), 2)
	_, psd := transform.PSD(rec)
	for _, tc := range []struct {
		m    Metric
		want float64
	}{
		{MetricEuclidean, dsp.EuclideanDistance(psd, b.PSDMean)},
		{MetricMahalanobis, dsp.MahalanobisDiag(psd, b.PSDMean, b.PSDVar)},
	} {
		if got, err := b.Score(tc.m, rec, nil); err != nil || math.Float64bits(got) != math.Float64bits(tc.want) {
			t.Errorf("%v: Score = (%g, %v), want %g", tc.m, got, err, tc.want)
		}
		if n := testing.AllocsPerRun(100, func() { b.Score(tc.m, rec, nil) }); n != 0 {
			t.Errorf("%v: Score allocates %.0f times per call, want 0", tc.m, n)
		}
	}
}
