//go:build !race

// The race detector makes sync.Pool drop a share of what is put back,
// so allocation counts over pooled scratch only hold without it.

package physics

import "testing"

// TestAccelerationIntoDoesNotAllocate pins what BENCH.txt anchors for
// BenchmarkAccelerationInto: synthesis into caller buffers allocates
// nothing once the pooled oscillator scratch is warm.
func TestAccelerationIntoDoesNotAllocate(t *testing.T) {
	p := NewPump(PumpConfig{ID: 7, Seed: 42, InitialAgeDays: 500})
	ax, ay, az := make([]float64, 1024), make([]float64, 1024), make([]float64, 1024)
	p.AccelerationInto(ax, ay, az, 80, 4000)
	if n := testing.AllocsPerRun(100, func() { p.AccelerationInto(ax, ay, az, 80, 4000) }); n != 0 {
		t.Errorf("AccelerationInto: %.0f allocs/op, BENCH.txt anchors 0", n)
	}
}
