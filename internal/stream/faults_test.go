package stream

import (
	"reflect"
	"testing"

	"vibepm/internal/feature"
	"vibepm/internal/store"
)

// TestFaultFoldMatchesDirect proves the stream-cached fault report is
// identical to the pure function it memoizes, on both paths: records
// folded with the detector installed (classified at ingest) and records
// queried cold (classified on first request).
func TestFaultFoldMatchesDirect(t *testing.T) {
	det := feature.NewFaultDetector(feature.MachineSpec{})
	ls := NewLiveState(Config{})
	ls.SetFaultDetector(det)
	if ls.FaultDetector() != det {
		t.Fatal("detector not installed")
	}

	folded := mkRec(1, 1, 256)
	ls.Fold(folded)
	cold := mkRec(1, 2, 256)

	for name, rec := range map[string]*store.Record{"folded": folded, "cold": cold} {
		want := det.Detect(rec)
		got := ls.FaultReport(rec, det)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: cached report diverged:\ngot:  %+v\nwant: %+v", name, got, want)
		}
		// Second read must serve the memo and stay identical.
		if again := ls.FaultReport(rec, det); !reflect.DeepEqual(again, want) {
			t.Fatalf("%s: memoized report diverged: %+v", name, again)
		}
	}
}

// TestFaultSlotDetectorSwap pins the two-slot window: reports against
// the current and previous detector identities are both served, and a
// third identity evicts the oldest.
func TestFaultSlotDetectorSwap(t *testing.T) {
	d1 := feature.NewFaultDetector(feature.MachineSpec{})
	d2 := d1.WithSpec(1, feature.MachineSpec{RotorHz: 17})
	d3 := d2.WithSpec(1, feature.MachineSpec{RotorHz: 23})
	if d1 == d2 || d2 == d3 {
		t.Fatal("WithSpec must return a new detector identity")
	}

	ls := NewLiveState(Config{})
	ls.SetFaultDetector(d1)
	rec := mkRec(1, 3, 256)
	ls.Fold(rec)

	r1 := ls.FaultReport(rec, d1)
	r2 := ls.FaultReport(rec, d2)
	if r1.RotorHz == r2.RotorHz {
		t.Fatalf("pinned rotor ignored: %g == %g", r1.RotorHz, r2.RotorHz)
	}

	ps := ls.pump(rec.PumpID)
	ps.mu.Lock()
	f := ps.feats[rec]
	if f == nil {
		t.Fatal("record not folded")
	}
	if len(f.faults) != 2 {
		t.Fatalf("%d fault slots, want 2", len(f.faults))
	}
	ps.mu.Unlock()

	// A third identity evicts d1 but keeps d2.
	_ = ls.FaultReport(rec, d3)
	ps.mu.Lock()
	defer ps.mu.Unlock()
	if len(f.faults) != 2 {
		t.Fatalf("%d fault slots after swap, want 2", len(f.faults))
	}
	if _, ok := f.faults.get(d1); ok {
		t.Fatal("oldest detector slot not evicted")
	}
	if _, ok := f.faults.get(d2); !ok {
		t.Fatal("previous detector slot evicted too early")
	}
	if _, ok := f.faults.get(d3); !ok {
		t.Fatal("current detector slot missing")
	}
}
