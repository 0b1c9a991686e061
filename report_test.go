package vibepm

import (
	"errors"
	"testing"
)

func TestReportAndFleetReport(t *testing.T) {
	eng, ds := fitEngine(t, 30)
	age := ageFuncFor(ds)
	if _, err := eng.LearnLifetimeModels(age); err != nil {
		t.Fatal(err)
	}
	rep, err := eng.Report(0, age)
	if err != nil {
		t.Fatal(err)
	}
	if rep.PumpID != 0 || rep.Zone == ZoneUnknown {
		t.Fatalf("report %+v", rep)
	}
	if !rep.HasRUL {
		t.Fatal("RUL missing despite learned models")
	}
	var probSum float64
	for _, p := range rep.Probabilities {
		probSum += p
	}
	if probSum < 0.99 || probSum > 1.01 {
		t.Fatalf("probabilities sum %.3f", probSum)
	}

	fleet, err := eng.FleetReport(age)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 12 {
		t.Fatalf("fleet rows %d", len(fleet))
	}
	// Urgency ordering: RUL non-decreasing across the projected prefix.
	for i := 1; i < len(fleet); i++ {
		if fleet[i-1].HasRUL && fleet[i].HasRUL && fleet[i-1].RULDays > fleet[i].RULDays {
			t.Fatalf("fleet not urgency-sorted at %d", i)
		}
	}
}

func TestReportWithoutRUL(t *testing.T) {
	eng, _ := fitEngine(t, 31)
	rep, err := eng.Report(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HasRUL {
		t.Fatal("RUL reported without models")
	}
}

func TestReportErrors(t *testing.T) {
	eng := New(Options{})
	if _, err := eng.Report(0, nil); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v", err)
	}
	if _, err := eng.FleetReport(nil); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v", err)
	}
	fitted, _ := fitEngine(t, 32)
	if _, err := fitted.Report(999, nil); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
}
