package feature

import (
	"math"
	"math/rand"
	"testing"

	"vibepm/internal/mems"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// benchPSD builds a synthetic smoothed-PSD-like spectrum with a harmonic
// series over a noise floor, matching what ExtractHarmonic sees from the
// transform layer on a 1024-sample measurement.
func benchPSD(n int) (freq, psd []float64) {
	rng := rand.New(rand.NewSource(7))
	freq = make([]float64, n)
	psd = make([]float64, n)
	for i := range freq {
		freq[i] = float64(i) * 3200.0 / (2 * float64(n))
	}
	for i := range psd {
		psd[i] = 1e-6 * (1 + 0.3*rng.Float64())
	}
	for h := 1; h <= 12; h++ {
		center := 50 * h * n / 1600
		if center >= n-2 {
			break
		}
		for d := -2; d <= 2; d++ {
			psd[center+d] += 1e-3 / float64(h) * math.Exp(-float64(d*d))
		}
	}
	return freq, psd
}

func BenchmarkHarmonicExtract(b *testing.B) {
	freq, psd := benchPSD(1024)
	b.ReportAllocs()
	for b.Loop() {
		ExtractHarmonic(freq, psd, Options{})
	}
}

func BenchmarkPeakDistance(b *testing.B) {
	freq, psd := benchPSD(1024)
	h1 := ExtractHarmonic(freq, psd, Options{})
	for i := range psd {
		psd[i] *= 1 + 0.1*math.Sin(float64(i))
	}
	h2 := ExtractHarmonic(freq, psd, Options{})
	b.ReportAllocs()
	for b.Loop() {
		if _, err := PeakDistance(h1, h2, 0, 0, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// capture synthesizes one quantized measurement of a (possibly faulty)
// pump at 4 kHz, k samples per axis, wrapped as a stored record, plus
// the spec carrying the pump's true rotor speed.
func capture(tb testing.TB, id int, pumpSeed, sensorSeed int64, day float64, fault physics.FaultConfig, k int) (*store.Record, MachineSpec) {
	tb.Helper()
	pump := physics.NewPump(physics.PumpConfig{ID: id, Seed: pumpSeed, LifeDays: 600})
	src := mems.Source(pump)
	if fault.Class != physics.FaultNone {
		src = physics.NewFaultyPump(pump, fault)
	}
	sensor, err := mems.New(mems.Config{Seed: sensorSeed, SampleRateHz: 4000})
	if err != nil {
		tb.Fatal(err)
	}
	m := sensor.Measure(src, day, k)
	return &store.Record{
		PumpID:       id,
		ServiceDays:  day,
		SampleRateHz: m.SampleRateHz,
		ScaleG:       m.ScaleG,
		Raw:          m.Raw,
	}, MachineSpec{RotorHz: pump.RotorHz()}
}

// benchRecords captures the traffic vibed receives — k samples per axis
// at 4 kHz — from eight pumps, half of them carrying a bearing fault
// (the records of vibebench's FaultDetect1kEst). A bench that
// reclassified one record would let the branch predictor learn its
// spectrum; rotating over several keeps the floor-median selection as
// unpredictable as live traffic.
func benchRecords(tb testing.TB, k int) (recs []*store.Record, specs []MachineSpec) {
	tb.Helper()
	for id := 1; id <= 8; id++ {
		var fault physics.FaultConfig
		if id%2 == 1 {
			fault = physics.FaultConfig{Class: physics.FaultBearing, Defect: physics.DefectOuterRace, Severity: 0.6}
		}
		rec, spec := capture(tb, id, int64(209+id), int64(7*id+204), float64(30*id), fault, k)
		recs, specs = append(recs, rec), append(specs, spec)
	}
	return recs, specs
}

// BenchmarkDetectRecord prices the fault classifier on the traffic
// vibed serves — 1024-sample records with the rotor speed estimated
// from the spectrum (vibed enables faults with an empty MachineSpec) —
// next to the given-rotor and large-capture variants.
func BenchmarkDetectRecord(b *testing.B) {
	for _, size := range []struct {
		name string
		k    int
	}{{"1k", 1024}, {"16k", 16384}} {
		recs, given := benchRecords(b, size.k)
		for _, mode := range []struct {
			name  string
			specs []MachineSpec
		}{{"estimated", make([]MachineSpec, len(recs))}, {"given", given}} {
			b.Run(size.name+"/"+mode.name, func(b *testing.B) {
				b.ReportAllocs()
				i := 0
				for b.Loop() {
					if rep := DetectRecord(recs[i], mode.specs[i]); rep.RotorHz <= 0 {
						b.Fatalf("rotor unresolved: %+v", rep)
					}
					i = (i + 1) % len(recs)
				}
			})
		}
	}
}
