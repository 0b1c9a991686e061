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
