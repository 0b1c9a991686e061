package meanshift

import (
	"fmt"
	"testing"

	"vibepm/internal/dsp"
	"vibepm/internal/mems"
	"vibepm/internal/physics"
)

// offsetTrace is the input of the engine's outlier pass: n
// per-measurement acceleration averages of one pump read through one
// sensor over the 75 days experiments.Fig8 draws.
func offsetTrace(tb testing.TB, cfg mems.Config, n int) [][]float64 {
	tb.Helper()
	sensor, err := mems.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	pump := physics.NewPump(physics.PumpConfig{ID: 0, Seed: 7})
	pts := make([][]float64, n)
	for i := range pts {
		m := sensor.Measure(pump, 75*float64(i)/float64(n), 256)
		p := make([]float64, mems.Axes)
		for axis := range p {
			p[axis] = dsp.Mean(m.AxisG(axis))
		}
		pts[i] = p
	}
	return pts
}

// BenchmarkCluster prices one outlier pass at a quarter-year and at the
// 1,500-point cap of preprocess, both at the 0.05 g floor the adaptive
// bandwidth sits on. stable is a healthy sensor, whose every point lies
// in every ball; drifting is Fig. 8's unstable one, whose offset wanders
// through many balls.
func BenchmarkCluster(b *testing.B) {
	for _, tc := range []struct {
		name string
		cfg  mems.Config
	}{
		{"stable", mems.Config{Seed: 8}},
		{"drifting", mems.Config{Seed: 9, DriftPerDayG: 0.004, StepFaults: 3, StepScaleG: 1.0}},
	} {
		for _, n := range []int{250, 1500} {
			pts := offsetTrace(b, tc.cfg, n)
			b.Run(fmt.Sprintf("%s/%d", tc.name, n), func(b *testing.B) {
				b.ReportAllocs()
				for b.Loop() {
					if _, err := Cluster(pts, Config{Bandwidth: 0.05}); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
