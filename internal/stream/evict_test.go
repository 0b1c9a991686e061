package stream

import (
	"testing"

	"vibepm/internal/store"
)

// pumpCacheLen reads one pump's memo size directly (in-package).
func pumpCacheLen(ls *LiveState, pumpID int) int {
	ps := ls.pump(pumpID)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	return len(ps.feats)
}

// TestEvictOrphansThresholdExact pins the compaction trigger at
// exactly 1.5x the live series plus the fixed slack: a memo sitting on
// the bound is left alone (assembly does no rebuild work), one entry
// past it compacts down to the live set in a single pass.
func TestEvictOrphansThresholdExact(t *testing.T) {
	ls := NewLiveState(Config{})
	const live = 20
	recs := make([]*store.Record, live)
	for i := range recs {
		recs[i] = mkRec(1, float64(i), 64)
		ls.Fold(recs[i])
	}
	// Orphans: folded records the store snapshot no longer references.
	// live*3/2+8 is the documented bound; fill the memo to exactly it.
	slack := live*3/2 + 8 - live
	day := float64(live)
	for i := 0; i < slack; i++ {
		ls.Fold(mkRec(1, day, 64))
		day++
	}
	bound := live*3/2 + 8
	if got := pumpCacheLen(ls, 1); got != bound {
		t.Fatalf("setup: memo holds %d entries, want exactly the bound %d", got, bound)
	}

	before := metEvictions.Value()
	ls.Ensure(1, recs)
	if d := metEvictions.Value() - before; d != 0 {
		t.Fatalf("memo at the bound evicted %d entries; on-bound must be free", d)
	}
	if got := pumpCacheLen(ls, 1); got != bound {
		t.Fatalf("on-bound assembly changed the memo: %d entries, want %d", got, bound)
	}

	// One orphan past the bound: the next assembly compacts to the live
	// series, evicting every orphan in one pass — no residue, no
	// repeated partial scans.
	ls.Fold(mkRec(1, day, 64))
	before = metEvictions.Value()
	ls.Ensure(1, recs)
	if d := metEvictions.Value() - before; d != uint64(slack+1) {
		t.Fatalf("compaction evicted %d entries, want every orphan (%d)", d, slack+1)
	}
	if got := pumpCacheLen(ls, 1); got != live {
		t.Fatalf("post-compaction memo holds %d entries, want the live %d", got, live)
	}
	if ls.Size() != live {
		t.Fatalf("global size %d after compaction, want %d", ls.Size(), live)
	}
}

// TestEvictOrphansMassReset pins compaction work on a fleet where 90%
// of pumps hold empty memos (a maintenance pass replaced them, so the
// memo never saw their new history): those pumps have nothing to scan
// (zero evictions on reassembly), the survivors whose store snapshots
// were reloaded compact once — one eviction per orphan — and every
// pump's memo lands within the 1.5x live-series bound. A second
// assembly over the same snapshots is pure cache hits: no misses, no
// evictions, no size movement.
func TestEvictOrphansMassReset(t *testing.T) {
	ls := NewLiveState(Config{})
	const (
		pumps   = 20
		perPump = 40
	)
	// Only the two survivors hold (soon to be orphaned) memos.
	survivors := []int{0, 1}
	for _, p := range survivors {
		for i := 0; i < perPump; i++ {
			ls.Fold(mkRec(p, float64(i), 64))
		}
	}
	if ls.Size() != len(survivors)*perPump {
		t.Fatalf("warm size %d, want %d", ls.Size(), len(survivors)*perPump)
	}

	// The store reload: every pump's snapshot carries fresh pointers.
	snapshot := make(map[int][]*store.Record, pumps)
	for p := 0; p < pumps; p++ {
		recs := make([]*store.Record, perPump)
		for i := range recs {
			recs[i] = mkRec(p, float64(i), 64)
		}
		snapshot[p] = recs
	}

	bound := perPump*3/2 + 8
	// Reset pumps reassemble from empty memos: misses, but zero
	// eviction scans — there is nothing to compact.
	before := metEvictions.Value()
	for p := 2; p < pumps; p++ {
		ls.Ensure(p, snapshot[p])
		if got := pumpCacheLen(ls, p); got != perPump {
			t.Fatalf("reset pump %d memo holds %d, want %d", p, got, perPump)
		}
	}
	if d := metEvictions.Value() - before; d != 0 {
		t.Fatalf("reassembling reset pumps evicted %d entries, want 0", d)
	}

	// Survivors carry perPump orphans each; the first assembly compacts
	// exactly those.
	for _, p := range survivors {
		before := metEvictions.Value()
		ls.Ensure(p, snapshot[p])
		if d := metEvictions.Value() - before; d != perPump {
			t.Fatalf("survivor %d evicted %d entries, want one per orphan (%d)", p, d, perPump)
		}
	}

	// Bound holds fleet-wide, and steady state does no further work.
	for p := 0; p < pumps; p++ {
		if got := pumpCacheLen(ls, p); got > bound {
			t.Fatalf("pump %d memo %d exceeds the 1.5x+%d bound %d", p, got, 8, bound)
		}
	}
	evBefore, missBefore := metEvictions.Value(), metMisses.Value()
	sizeBefore := ls.Size()
	for p := 0; p < pumps; p++ {
		ls.Ensure(p, snapshot[p])
	}
	if d := metEvictions.Value() - evBefore; d != 0 {
		t.Fatalf("steady-state assembly evicted %d entries", d)
	}
	if d := metMisses.Value() - missBefore; d != 0 {
		t.Fatalf("steady-state assembly missed %d times", d)
	}
	if ls.Size() != sizeBefore {
		t.Fatalf("steady-state assembly moved size %d -> %d", sizeBefore, ls.Size())
	}
	if ls.Size() != pumps*perPump {
		t.Fatalf("final size %d, want %d", ls.Size(), pumps*perPump)
	}
}
