//go:build !race

// The race detector makes sync.Pool drop a share of what is put back,
// so allocation ceilings over pooled scratch only hold without it.

package stream

import (
	"runtime"
	"testing"
)

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

// TestFoldBytesCeiling: the fold reads its spectrum from pooled
// scratch and keeps only what it derives, so one 1,024-sample fold
// allocates the bundle and its peak lists — not the 16 KB frequency and
// PSD arrays plus an 8 KB velocity spectrum it used to drop per record.
func TestFoldBytesCeiling(t *testing.T) {
	ls := servingState(t, false)
	pool := freshCopies(simRec(t, 1, 90, 1024), 101)
	ls.Fold(pool[0]) // fills the scratch pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rec := range pool[1:] {
		ls.Fold(rec)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(pool)-1); per > 4096 {
		t.Errorf("Fold: %d B/op, ceiling 4096", per)
	}
}
