//go:build !race

// The race detector makes sync.Pool drop a share of what is put back,
// so allocation ceilings over pooled scratch only hold without it.

package feature

import "testing"

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
