package vibepm_test

import (
	"math"
	"testing"

	"vibepm/internal/dataset"
	"vibepm/internal/feature"
	"vibepm/internal/physics"
)

// TestRotorEstimateSimulateFleet pins spectrum-only rotor recovery on
// the exact corpus `vibed -simulate` serves. This is a regression test:
// the anchor-based estimator shipped first locked onto 2× the shaft
// speed on worn pumps (the wear-boosted even harmonics scored within
// tolerance of the true comb), which turned the true odd harmonics
// into "half-orders" and invented looseness/misalignment mechanisms on
// healthy-taxonomy machines. The comb-scan estimator must recover the
// true rotor on every pump, and the only fault class the worn fleet
// may report is the physically-intended late-life ones (looseness from
// past-wear-out clearance, bearing from developed defect tones) —
// never imbalance or misalignment, which this fleet does not have.
func TestRotorEstimateSimulateFleet(t *testing.T) {
	ds, err := dataset.Generate(dataset.Config{
		Seed:               1,
		DurationDays:       60,
		MeasurementsPerDay: 2,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA:  60,
			physics.MergedBC: 120,
			physics.MergedD:  60,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range ds.Measurements.Pumps() {
		pump := ds.Fleet.Pump(id)
		recs := ds.Measurements.All(id)
		if pump == nil || len(recs) == 0 {
			t.Fatalf("pump %d: missing fleet entry or records", id)
		}
		rec := recs[len(recs)-1]
		rep := feature.DetectRecord(rec, feature.MachineSpec{})
		want := pump.RotorHz()
		if math.Abs(rep.RotorHz-want) > 0.02*want {
			t.Errorf("pump %d: estimated rotor %.2f Hz, want %.2f ± 2%%", id, rep.RotorHz, want)
		}
		switch rep.Class {
		case physics.FaultNone, physics.FaultLooseness, physics.FaultBearing:
		default:
			t.Errorf("pump %d: false fault mechanism %q at rotor %.2f", id, rep.Class, rep.RotorHz)
		}
	}
}
