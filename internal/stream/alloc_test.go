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
	// A resident record is a hit, so every run folds a pointer the memo
	// has not seen: AllocsPerRun makes one warm-up call plus the runs.
	pool := freshCopies(simRec(t, 1, 90, 1024), 101)
	i := 0
	if n := testing.AllocsPerRun(100, func() { ls.Fold(pool[i]); i++ }); n > 20 {
		t.Errorf("Fold with detector: %.0f allocs/op, ceiling 20", n)
	}
}
