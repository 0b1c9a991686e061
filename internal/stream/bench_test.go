package stream

import (
	"math/rand"
	"testing"

	"vibepm/internal/feature"
	"vibepm/internal/mems"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// simRec captures one simulated pump measurement the way vibed receives
// it: k samples per axis at 4 kHz, quantized through the MEMS model.
func simRec(tb testing.TB, pumpID int, day float64, k int) *store.Record {
	tb.Helper()
	pump := physics.NewPump(physics.PumpConfig{ID: pumpID, Seed: int64(100 + pumpID), LifeDays: 600})
	sensor, err := mems.New(mems.Config{Seed: int64(7*pumpID + 1), SampleRateHz: 4000})
	if err != nil {
		tb.Fatal(err)
	}
	m := sensor.Measure(pump, day, k)
	return &store.Record{
		PumpID:       pumpID,
		ServiceDays:  day,
		SampleRateHz: m.SampleRateHz,
		ScaleG:       m.ScaleG,
		Raw:          m.Raw,
	}
}

// servingState builds a live state the way a fitted vibed holds it: a
// trained baseline installed, and (with faults) the detector vibed
// enables — an empty MachineSpec, so every fold estimates the rotor.
func servingState(tb testing.TB, faults bool) *LiveState {
	tb.Helper()
	var healthy []*store.Record
	for i := 0; i < 4; i++ {
		healthy = append(healthy, simRec(tb, 2, float64(10+i), 1024))
	}
	base, err := feature.TrainBaseline(healthy, feature.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	hs := make([]feature.Harmonic, len(healthy))
	for i, rec := range healthy {
		hs[i] = feature.HarmonicOfRecord(rec, feature.Options{})
	}
	base.SetNormalizers(hs...)
	ls := NewLiveState(Config{})
	ls.SetBaseline(base)
	if faults {
		ls.SetFaultDetector(feature.NewFaultDetector(feature.MachineSpec{}))
	}
	return ls
}

// sameFit returns a fresh live state with ls's config, baseline and
// detector: an empty memo, so folding any pointer is a miss.
func sameFit(ls *LiveState) *LiveState {
	fresh := NewLiveState(ls.cfg)
	fresh.baseline.Store(ls.baseline.Load())
	fresh.detector.Store(ls.detector.Load())
	return fresh
}

// freshCopies returns n shallow copies of rec: same waveform, distinct
// pointers, so each is a record the memo has not seen.
func freshCopies(rec *store.Record, n int) []*store.Record {
	out := make([]*store.Record, n)
	for i := range out {
		c := *rec
		out[i] = &c
	}
	return out
}

// BenchmarkFold1k prices the ingest-time fold of one 1024-sample record
// on a fitted node, with and without the fault classifier vibed turns
// on by default.
func BenchmarkFold1k(b *testing.B) {
	// Folding a resident record is a hit, so the loop cycles a pool of
	// distinct pointers and takes a fresh memo each time round.
	pool := freshCopies(simRec(b, 1, 90, 1024), 64)
	for _, c := range []struct {
		name   string
		faults bool
	}{{"faults", true}, {"nofaults", false}} {
		b.Run(c.name, func(b *testing.B) {
			ls := servingState(b, c.faults)
			i := 0
			b.ReportAllocs()
			for b.Loop() {
				if i == len(pool) {
					ls = sameFit(ls)
					i = 0
				}
				ls.Fold(pool[i])
				i++
			}
		})
	}
}

// BenchmarkWarmLive40x10k warms a fresh live state over 40 pumps × 250
// records — the shape of a mid-size fleet restart, 10k folds per warm —
// with workers=0, so it fans out to GOMAXPROCS: BENCH.txt has a row at
// -cpu 1 and one at -cpu 2. Payload content is irrelevant to warm cost,
// so a seeded rng stands in for the MEMS model.
func BenchmarkWarmLive40x10k(b *testing.B) {
	rng := rand.New(rand.NewSource(92))
	warm := store.NewMeasurements()
	for p := 0; p < 40; p++ {
		for i := 0; i < 250; i++ {
			rec := &store.Record{PumpID: p, ServiceDays: float64(i) * 0.25, SampleRateHz: 3200, ScaleG: 16}
			for axis := 0; axis < 3; axis++ {
				w := make([]int16, 64)
				for j := range w {
					w[j] = int16(rng.Intn(4096) - 2048)
				}
				rec.Raw[axis] = w
			}
			warm.AddUnique(rec)
		}
	}
	want := warm.Len()
	b.ReportAllocs()
	for b.Loop() {
		ls := NewLiveState(Config{})
		if total := ls.Warm(warm, 0); total != want {
			b.Fatalf("warmed %d records, want %d", total, want)
		}
	}
}
