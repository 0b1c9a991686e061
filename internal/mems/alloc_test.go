//go:build !race

// The race detector makes sync.Pool drop a share of what is put back,
// so allocation counts over pooled scratch only hold without it.

package mems

import (
	"testing"

	"vibepm/internal/physics"
)

// TestMeasureAllocs pins a warm capture to its result: the Measurement
// and its three raw slices. The acceleration buffers and the noise RNG
// come from the pooled scratch.
func TestMeasureAllocs(t *testing.T) {
	s := newTestSensor(t, Config{Seed: 3})
	pump := physics.NewPump(physics.PumpConfig{ID: 7, Seed: 42, InitialAgeDays: 500})
	s.Measure(pump, 80, 1024)
	if n := testing.AllocsPerRun(100, func() { s.Measure(pump, 80, 1024) }); n > 4 {
		t.Errorf("Measure: %.0f allocs/op, want at most 4", n)
	}
}
