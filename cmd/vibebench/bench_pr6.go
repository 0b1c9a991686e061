package main

import (
	"fmt"
	"testing"

	"vibepm"
	"vibepm/internal/dataset"
	"vibepm/internal/physics"
	"vibepm/internal/store"
	"vibepm/internal/stream"
)

// prePR6Baseline records the batch-path timing measured on the
// reference machine for the queries the incremental analysis path
// replaces: LiveTrend's baseline is what the same trend rebuild cost
// through the batch CleanTrend branch on the same warm 10k store
// (the CleanTrendBatch10k case of this suite).
var prePR6Baseline = map[string]benchResult{
	"LiveTrend": {NsPerOp: 23234862, AllocsPerOp: 2660},
}

// pr6Fixture is the warm 10k-measurement deployment the streaming
// cases run against: a 40-pump fleet at the default 4 measurements/day
// over 63 days (10,080 trend captures + 120 labelled ones), one live
// engine with every record folded, and one batch engine over the very
// same stores. Pools of fresh captures (unique, post-window service
// days) feed the per-iteration ingests so no two iterations collide.
type pr6Fixture struct {
	ds       *dataset.Dataset
	liveEng  *vibepm.Engine
	batchEng *vibepm.Engine

	// ingestLS is a dedicated live state (baseline installed) for the
	// pure fold-cost case, isolated from the trend engines' caches.
	ingestLS *vibepm.LiveState

	ingestPool []*store.Record // cycled by LiveIngest, never stored
	livePool   []*store.Record // ingested by LiveTrend
	batchPool  []*store.Record // ingested by CleanTrendBatch10k
}

func newPR6Fixture() (*pr6Fixture, error) {
	ds, err := dataset.Generate(dataset.Config{
		Seed:               606,
		Pumps:              40,
		DurationDays:       63,
		MeasurementsPerDay: 4,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA:  30,
			physics.MergedBC: 60,
			physics.MergedD:  30,
		},
	})
	if err != nil {
		return nil, fmt.Errorf("pr6 corpus: %w", err)
	}
	// The labelled captures live outside the trend store; add them so
	// Fit finds its (label, measurement) pairs.
	for _, lr := range ds.LabelledRecords {
		ds.Measurements.Add(lr.Record)
	}
	f := &pr6Fixture{ds: ds}
	f.liveEng = vibepm.NewWithStores(vibepm.Options{}, ds.Measurements, ds.Labels)
	f.liveEng.EnableLive()
	if err := f.liveEng.Fit(); err != nil {
		return nil, fmt.Errorf("pr6 live fit: %w", err)
	}
	// Warm after Fit so every fold carries the baseline's harmonic
	// variant and D_a — the steady state of a deployment that ingested
	// its history through the live path.
	f.liveEng.WarmLive()
	f.batchEng = vibepm.NewWithStores(vibepm.Options{}, ds.Measurements, ds.Labels)
	if err := f.batchEng.Fit(); err != nil {
		return nil, fmt.Errorf("pr6 batch fit: %w", err)
	}
	base, err := f.liveEng.Baseline()
	if err != nil {
		return nil, err
	}
	f.ingestLS = stream.NewLiveState(stream.Config{})
	f.ingestLS.SetBaseline(base)

	// Pool captures stay inside the experiment window (interleaved
	// with the stored trend days) so the per-iteration ingests extend
	// the series with ordinary points: a post-window day would
	// extrapolate the wear model into extreme offsets and make the
	// mean-shift pass of later cases depend on how many iterations
	// earlier cases happened to run.
	pool := func(n int, phase float64) []*store.Record {
		out := make([]*store.Record, n)
		for i := range out {
			day := phase + float64(i)*ds.Config.DurationDays/float64(n+1)
			out[i] = ds.Capture(i%ds.Config.Pumps, day)
		}
		return out
	}
	f.ingestPool = pool(512, 0.11)
	f.livePool = pool(2048, 0.17)
	f.batchPool = pool(256, 0.23)
	return f, nil
}

func pr6Age(_ int, serviceDays float64) float64 { return serviceDays }

// benchSuitePR6 assembles the streaming-analysis cases: the
// per-record fold cost the live path pays at ingest, the trend rebuild
// after one new measurement through the incremental path, and the same
// rebuild through the batch branch — the before/after of the O(new
// data) claim on a warm 10k-measurement store.
func benchSuitePR6() ([]benchCase, error) {
	f, err := newPR6Fixture()
	if err != nil {
		return nil, err
	}
	return []benchCase{
		{"LiveIngest", func(b *testing.B) {
			i := 0
			b.ReportAllocs()
			for b.Loop() {
				f.ingestLS.Fold(f.ingestPool[i%len(f.ingestPool)])
				i++
			}
		}},
		{"LiveTrend", func(b *testing.B) {
			i := 0
			b.ReportAllocs()
			for b.Loop() {
				rec := f.livePool[i%len(f.livePool)]
				i++
				f.liveEng.Ingest(rec)
				if _, err := f.liveEng.CleanTrend(rec.PumpID, pr6Age); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"CleanTrendBatch10k", func(b *testing.B) {
			i := 0
			b.ReportAllocs()
			for b.Loop() {
				rec := f.batchPool[i%len(f.batchPool)]
				i++
				f.batchEng.Ingest(rec)
				if _, err := f.batchEng.CleanTrend(rec.PumpID, pr6Age); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}, nil
}
