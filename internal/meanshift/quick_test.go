package meanshift

import (
	"testing"
	"testing/quick"
)

// TestClusterPartitionProperty: every point gets exactly one label, the
// label indexes a real center, and cluster sizes sum to the number of
// points — for arbitrary 2-D inputs and bandwidths.
func TestClusterPartitionProperty(t *testing.T) {
	f := func(raw []byte, bwSeed uint8) bool {
		if len(raw) < 2 {
			return true
		}
		pts := make([][]float64, 0, len(raw)/2)
		for i := 0; i+1 < len(raw) && len(pts) < 60; i += 2 {
			pts = append(pts, []float64{float64(raw[i]) / 8, float64(raw[i+1]) / 8})
		}
		bw := 0.5 + float64(bwSeed)/16
		res, err := Cluster(pts, Config{Bandwidth: bw})
		if err != nil {
			return false
		}
		if len(res.Labels) != len(pts) {
			return false
		}
		total := 0
		for _, s := range res.Sizes {
			if s < 0 {
				return false
			}
			total += s
		}
		if total != len(pts) {
			return false
		}
		for _, l := range res.Labels {
			if l < 0 || l >= len(res.Centers) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
