//go:build !race

// The race detector makes sync.Pool drop a share of what is put back,
// so allocation ceilings over pooled scratch only hold without it.

package stream

import "testing"

// TestFoldAllocCeiling pins the ingest-time fold of a fitted node with
// the fault classifier on: what it allocates is what it retains (the
// bundle, its slots, the peak lists, the evidence) plus the peak
// search's work lists — not a slice per matching band.
func TestFoldAllocCeiling(t *testing.T) {
	ls := servingState(t, true)
	rec := simRec(t, 1, 90, 1024)
	ls.Fold(rec)
	if n := testing.AllocsPerRun(100, func() { ls.Fold(rec) }); n > 20 {
		t.Errorf("Fold with detector: %.0f allocs/op, ceiling 20", n)
	}
}
