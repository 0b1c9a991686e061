package main

import (
	"fmt"
	"testing"

	"vibepm/internal/dsp"
	"vibepm/internal/feature"
	"vibepm/internal/mems"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// prePR14Baseline records FaultDetect1kEst as measured immediately
// before the selection-median / pooled-scratch classifier landed, on
// the machine and in the session that measured the committed row (five
// alternated runs each, medians): every floor median was a fresh slice
// fully sorted, ~535 of them per record.
var prePR14Baseline = map[string]benchResult{
	"FaultDetect1kEst": {NsPerOp: 991902, AllocsPerOp: 553},
}

// benchSuitePR10 assembles the fault-taxonomy cases: the full
// per-record fault classification (three periodograms, rotor harmonics,
// envelope spectrum, defect-band scoring) at a large capture size with
// the rotor speed given, the same classification on the traffic vibed
// serves (1024-sample records, rotor speed estimated from the spectrum
// because vibed enables faults with an empty machine spec), and the
// envelope-spectrum primitive both lean on. The corpus is
// deterministic, built once outside the timings.
func benchSuitePR10() ([]benchCase, error) {
	const fs = 4000.0
	capture := func(id int, day float64, samples int, faulty bool) (*store.Record, *physics.Pump, error) {
		pump := physics.NewPump(physics.PumpConfig{ID: id, Seed: int64(209 + id), LifeDays: 600})
		src := mems.Source(pump)
		if faulty {
			src = physics.NewFaultyPump(pump, physics.FaultConfig{
				Class:    physics.FaultBearing,
				Defect:   physics.DefectOuterRace,
				Severity: 0.6,
			})
		}
		sensor, err := mems.New(mems.Config{Seed: int64(7*id + 204), SampleRateHz: fs})
		if err != nil {
			return nil, nil, fmt.Errorf("bench: fault sensor: %w", err)
		}
		m := sensor.Measure(src, day, samples)
		return &store.Record{
			PumpID:       id,
			ServiceDays:  day,
			SampleRateHz: m.SampleRateHz,
			ScaleG:       m.ScaleG,
			Raw:          m.Raw,
		}, pump, nil
	}
	rec, base, err := capture(1, 90, 16384, true)
	if err != nil {
		return nil, err
	}
	spec := feature.MachineSpec{RotorHz: base.RotorHz()}
	// Eight pumps, half of them faulty: reclassifying one record would
	// let the branch predictor learn its spectrum.
	var served []*store.Record
	for id := 1; id <= 8; id++ {
		r, _, err := capture(id, float64(30*id), 1024, id%2 == 1)
		if err != nil {
			return nil, err
		}
		served = append(served, r)
	}

	cases := []benchCase{
		{"FaultDetect16k", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				rep := feature.DetectRecord(rec, spec, feature.FaultOptions{})
				if rep.Class != physics.FaultBearing {
					b.Fatalf("classified %v, want bearing", rep.Class)
				}
			}
		}},
		{"FaultDetect1kEst", func(b *testing.B) {
			b.ReportAllocs()
			i := 0
			for b.Loop() {
				rep := feature.DetectRecord(served[i], feature.MachineSpec{}, feature.FaultOptions{})
				if rep.RotorHz <= 0 {
					b.Fatalf("rotor unresolved: %+v", rep)
				}
				i = (i + 1) % len(served)
			}
		}},
		{"EnvelopeSpectrum4096", func(b *testing.B) {
			x := benchSignal(4096)
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := dsp.EnvelopeSpectrum(x, fs); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	return cases, nil
}
