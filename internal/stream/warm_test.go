package stream

import (
	"sync"
	"testing"

	"vibepm/internal/store"
)

// warmStore builds a multi-pump store for warm-up tests.
func warmStore(pumps, perPump, samples int) *store.Measurements {
	m := store.NewMeasurements()
	for p := 0; p < pumps; p++ {
		for i := 0; i < perPump; i++ {
			m.AddUnique(mkRec(p, float64(i)*0.5, samples))
		}
	}
	return m
}

// TestWarmWorkerInvariance pins the satellite fix: Warm's workers
// parameter is honored (pumps fan across the pool) and the cached
// feature values are identical at every worker count — bitwise, via
// the same scalar comparisons the batch-equivalence harness uses.
func TestWarmWorkerInvariance(t *testing.T) {
	m := warmStore(9, 7, 128)
	want := m.Len()

	type snap struct {
		offsets [3]float64
		rms     float64
		vrms    float64
	}
	var ref map[int][]snap
	for _, workers := range []int{1, 2, 4, 16, 0} {
		ls := NewLiveState(Config{})
		total := ls.Warm(m, workers)
		if total != want {
			t.Fatalf("workers=%d: Warm folded %d records, want %d", workers, total, want)
		}
		if ls.Size() != want {
			t.Fatalf("workers=%d: cache size %d, want %d", workers, ls.Size(), want)
		}
		got := make(map[int][]snap)
		for _, pumpID := range m.Pumps() {
			recs := m.All(pumpID)
			for _, f := range ls.ensure(pumpID, recs, 0) {
				got[pumpID] = append(got[pumpID], snap{f.Offsets, f.RMS, f.VRMS})
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for pumpID, feats := range ref {
			for i, w := range feats {
				g := got[pumpID][i]
				if g.offsets != w.offsets || !eqF64(g.rms, w.rms) || !eqF64(g.vrms, w.vrms) {
					t.Fatalf("workers=%d: pump %d record %d features diverged", workers, pumpID, i)
				}
			}
		}
	}
}

// TestWarmConcurrentIngest drives Warm, ingest-time folds, and
// assemblies concurrently — the restart-under-traffic scenario vibed's
// overlapped recovery creates. Run under -race this is the
// concurrent-warm data-race probe; the assertions check the cache
// converges to exactly the store's contents.
func TestWarmConcurrentIngest(t *testing.T) {
	m := warmStore(8, 6, 128)
	ls := NewLiveState(Config{})

	var wg sync.WaitGroup
	wg.Add(3)
	go func() {
		defer wg.Done()
		ls.Warm(m, 4)
	}()
	go func() {
		// Ingest keeps flowing mid-warm: fresh records land in the store
		// and fold, interleaving with the warm-up's Ensure calls.
		defer wg.Done()
		for i := 0; i < 40; i++ {
			rec := mkRec(i%8, 100+float64(i), 128)
			if m.AddUnique(rec) {
				ls.Fold(rec)
			}
		}
	}()
	go func() {
		// Queries race the warm-up too.
		defer wg.Done()
		for i := 0; i < 20; i++ {
			pumpID := i % 8
			ls.OffsetRows(pumpID, m.All(pumpID))
		}
	}()
	wg.Wait()

	// A second warm is an all-hits no-op that returns the full count.
	if total := ls.Warm(m, 2); total != m.Len() {
		t.Fatalf("post-race warm folded %d, want %d", total, m.Len())
	}
	if ls.Size() != m.Len() {
		t.Fatalf("cache size %d, want %d", ls.Size(), m.Len())
	}
}
