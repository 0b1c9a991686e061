package vibepm

import (
	"errors"
	"testing"
)

func TestAnalyzeDegradedEmpty(t *testing.T) {
	eng := New(Options{})
	if _, err := eng.AnalyzeDegraded(DegradedConfig{}); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v, want ErrNoData", err)
	}
}

func TestAnalyzeDegradedUnfittedReportsButSkips(t *testing.T) {
	eng := New(Options{})
	eng.Ingest(&Record{PumpID: 3, ServiceDays: 1, SampleRateHz: 4000, ScaleG: 2,
		Raw: [3][]int16{make([]int16, 64), make([]int16, 64), make([]int16, 64)}})
	rep, err := eng.AnalyzeDegraded(DegradedConfig{
		ExpectedPerPump: map[int]int{3: 2, 9: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Pumps) != 2 {
		t.Fatalf("pumps = %d, want 2 (store ∪ expected)", len(rep.Pumps))
	}
	if rep.Analyzed != 0 || rep.Skipped != 2 {
		t.Fatalf("unfitted engine analyzed %d pumps", rep.Analyzed)
	}
	// Row order is sorted by pump id; the silent pump gets a zero row,
	// not an omission.
	if rep.Pumps[0].PumpID != 3 || rep.Pumps[1].PumpID != 9 {
		t.Fatalf("order: %+v", rep.Pumps)
	}
	if rep.Pumps[1].Received != 0 || rep.Pumps[1].Completeness != 0 {
		t.Fatalf("silent pump row: %+v", rep.Pumps[1])
	}
	if got, want := rep.Pumps[0].Completeness, 0.5; got != want {
		t.Fatalf("completeness = %v, want %v", got, want)
	}
	if got, want := rep.FleetCompleteness, 1.0/6.0; got != want {
		t.Fatalf("fleet completeness = %v, want %v", got, want)
	}
}

func TestAnalyzeDegradedClassifiesCompletePumps(t *testing.T) {
	eng, ds := fitEngine(t, 21)
	pumps := ds.Measurements.Pumps()
	if len(pumps) == 0 {
		t.Fatal("dataset has no pumps")
	}
	expected := map[int]int{}
	for _, id := range pumps {
		expected[id] = len(ds.Measurements.All(id)) // fully complete
	}
	rep, err := eng.AnalyzeDegraded(DegradedConfig{ExpectedPerPump: expected})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Analyzed == 0 {
		t.Fatal("fitted engine with complete data analyzed nothing")
	}
	if rep.FleetCompleteness != 1 {
		t.Fatalf("fleet completeness = %v, want 1", rep.FleetCompleteness)
	}
	for _, ph := range rep.Pumps {
		if ph.Expected > 0 && ph.Analyzed && ph.Zone == "" {
			t.Fatalf("analyzed pump %d has empty zone", ph.PumpID)
		}
	}
}

func TestAnalyzeDegradedMinCompletenessGate(t *testing.T) {
	eng, ds := fitEngine(t, 22)
	id := ds.Measurements.Pumps()[0]
	received := len(ds.Measurements.All(id))
	// Claim far more was expected than arrived: completeness below the
	// gate must skip classification even on a fitted engine.
	rep, err := eng.AnalyzeDegraded(DegradedConfig{
		ExpectedPerPump: map[int]int{id: received * 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	var row *PumpHealth
	for i := range rep.Pumps {
		if rep.Pumps[i].PumpID == id {
			row = &rep.Pumps[i]
		}
	}
	if row == nil {
		t.Fatal("pump row missing")
	}
	if row.Analyzed {
		t.Fatalf("pump at %.2f completeness classified despite the %g gate", row.Completeness, minCompleteness)
	}
	// Raising the expectation only for one pump must not gate the others.
	if rep.Analyzed == 0 {
		t.Fatal("whole fleet gated by one starved pump")
	}
	// Exactly at the gate the pump is classified.
	rep, err = eng.AnalyzeDegraded(DegradedConfig{
		ExpectedPerPump: map[int]int{id: received * 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range rep.Pumps {
		if ph.PumpID == id && (ph.Completeness != minCompleteness || !ph.Analyzed) {
			t.Fatalf("pump at the gate: %+v", ph)
		}
	}
}

func TestAnalyzeDegradedClampsOvercount(t *testing.T) {
	eng := New(Options{})
	for d := 1; d <= 4; d++ {
		eng.Ingest(&Record{PumpID: 1, ServiceDays: float64(d), SampleRateHz: 4000, ScaleG: 2,
			Raw: [3][]int16{make([]int16, 64), make([]int16, 64), make([]int16, 64)}})
	}
	rep, err := eng.AnalyzeDegraded(DegradedConfig{ExpectedPerPump: map[int]int{1: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Pumps[0].Completeness != 1 || rep.FleetCompleteness != 1 {
		t.Fatalf("overcount not clamped: %+v fleet=%v", rep.Pumps[0], rep.FleetCompleteness)
	}
}
