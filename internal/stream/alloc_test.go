//go:build !race

// The race detector makes sync.Pool drop a share of what is put back,
// so allocation ceilings over pooled scratch only hold without it.

package stream

import (
	"runtime"
	"runtime/debug"
	"testing"
)

// TestFoldAllocCeiling pins the ingest-time fold of a fitted node with
// the fault classifier on: what it allocates is what it retains (the
// bundle, the raw-option peak list, the evidence) — not the peak
// search's work lists, which are pooled, nor a slice per matching
// band, nor a list per keyed value. 3 allocs/op (9 while the peak
// search grew its own lists, 12 while the bundle held three slot lists).
func TestFoldAllocCeiling(t *testing.T) {
	ls := servingState(t, true)
	// A resident record is a hit, so every run folds a pointer the memo
	// has not seen: AllocsPerRun makes one warm-up call plus the runs.
	pool := freshCopies(simRec(t, 1, 90, 1024), 101)
	i := 0
	if n := testing.AllocsPerRun(100, func() { ls.Fold(pool[i]); i++ }); n > 4 {
		t.Errorf("Fold with detector: %.0f allocs/op, ceiling 4", n)
	}
}

// TestFoldBytesCeiling: the fold reads its spectrum and searches its
// peaks in pooled scratch and keeps only what it derives, so one
// 1,024-sample fold allocates the bundle and its peak list — not the
// 16 KB frequency and PSD arrays plus an 8 KB velocity spectrum it used
// to drop per record, nor a list of every local maximum. ~630 B/op
// (2,100 while the peak search grew its own lists, 2,180 while the
// bundle held slot lists).
func TestFoldBytesCeiling(t *testing.T) {
	ls := servingState(t, false)
	pool := freshCopies(simRec(t, 1, 90, 1024), 101)
	// A collection empties the scratch pools, and a pool's item parked on
	// another P is a miss: either refill would be counted against the
	// folds it lands in. One P and no collection, as AllocsPerRun runs.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	ls.Fold(pool[0]) // fills the scratch pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, rec := range pool[1:] {
		ls.Fold(rec)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(pool)-1); per > 800 {
		t.Errorf("Fold: %d B/op, ceiling 800", per)
	}
}

// TestFoldRetainedObjects: a record folded on a fitted node with the
// fault classifier on keeps three heap objects — the bundle, its peak
// list and the fault evidence — plus its share of the pump's memo map.
// Every one of them is an object the GC finds, and the pointer-bearing
// ones it scans, on every cycle for as long as the record is stored.
// 3.02 objects per record over 1,000 folds (6.03 while the bundle held
// three slot lists).
func TestFoldRetainedObjects(t *testing.T) {
	ls := servingState(t, true)
	pool := freshCopies(simRec(t, 1, 90, 1024), 1000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, rec := range pool {
		ls.Fold(rec)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if per := float64(after.HeapObjects-before.HeapObjects) / float64(len(pool)); per > 3.5 {
		t.Errorf("a folded record retains %.2f heap objects, ceiling 3.5", per)
	}
	runtime.KeepAlive(ls)
	runtime.KeepAlive(pool)
}
