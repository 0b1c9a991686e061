package feature_test

import (
	"fmt"
	"math"
	"testing"

	"vibepm/internal/feature"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// TestRotorEstimateSeverityGrid sweeps spectrum-only rotor recovery
// across fault severities and wear regimes. The estimator must stay
// within 2% of the shaft speed everywhere a correct answer is
// recoverable; where the spectrum is genuinely octave-ambiguous the
// only acceptable degradation is a half-rate estimate that classifies
// as none — a missed detection, never an invented mechanism at a wrong
// rotor speed.
func TestRotorEstimateSeverityGrid(t *testing.T) {
	// The half-comb of mid-severity looseness can mimic a monotone
	// rotor comb at f0/2 (the octave-promotion statistic E(5×)/E(4×)
	// sits below the rise threshold); those seeds legitimately read
	// half-rate. See halfCombRise in faults.go.
	ambiguous := map[string]bool{
		"looseness/0.50/32": true,
		"looseness/0.60/32": true,
	}
	check := func(label string, rec *store.Record, trueHz float64) {
		t.Helper()
		r := feature.DetectRecord(rec, feature.MachineSpec{})
		if math.Abs(r.RotorHz-trueHz) <= 0.02*trueHz {
			return
		}
		if ambiguous[label] {
			if math.Abs(2*r.RotorHz-trueHz) > 0.02*trueHz {
				t.Errorf("%s: ambiguous case estimated %.2f, want half of %.2f", label, r.RotorHz, trueHz)
			}
			if r.Class != physics.FaultNone {
				t.Errorf("%s: half-rate estimate must classify none, got %q", label, r.Class)
			}
			return
		}
		t.Errorf("%s: estimated rotor %.2f Hz, want %.2f ± 2%% (class %q)", label, r.RotorHz, trueHz, r.Class)
	}

	for _, c := range []struct {
		name string
		cls  physics.FaultClass
	}{
		{"looseness", physics.FaultLooseness},
		{"misalign", physics.FaultMisalignment},
		{"imbalance", physics.FaultImbalance},
	} {
		for _, sev := range []float64{0.25, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
			for _, seed := range []int64{31, 32, 33} {
				rec, pump := captureFault(t, seed, 0.2, physics.FaultConfig{Class: c.cls, Severity: sev}, 2048)
				check(fmt.Sprintf("%s/%.2f/%d", c.name, sev, seed), rec, pump.RotorHz())
			}
		}
	}
	// Healthy pumps across the wear range, including the past-wear-out
	// subharmonic regime where the 0.5× line out-powers 1×: the octave
	// promotion must still recover the shaft speed.
	for _, wear := range []float64{0.5, 0.65, 0.8, 0.95} {
		for _, seed := range []int64{41, 42, 43} {
			rec, pump := captureFault(t, seed, wear, physics.FaultConfig{}, 2048)
			check(fmt.Sprintf("healthy/%.2f/%d", wear, seed), rec, pump.RotorHz())
		}
	}
}
