package vibepm_test

import (
	"sync"
	"testing"

	"vibepm"
	"vibepm/internal/dataset"
	"vibepm/internal/physics"
	"vibepm/internal/store"
	"vibepm/internal/stream"
)

// liveBench is the warm 10k-measurement deployment the streaming
// benchmarks run against: a 40-pump fleet at the default 4
// measurements/day over 63 days (10,080 trend captures + 120 labelled
// ones) and one fitted engine with every record folded. Pools of fresh
// captures feed the per-iteration ingests so no two iterations collide;
// a pool's position outlives one benchmark run, so a -count rerun
// continues down it.
type liveBench struct {
	eng *vibepm.Engine

	// ingestLS is a dedicated live state (baseline installed) for the
	// pure fold-cost case, isolated from the trend engines' caches;
	// base is its baseline, installed again in each fresh one.
	ingestLS *vibepm.LiveState
	base     *vibepm.Baseline

	ingestPool []*store.Record // cycled by LiveIngest, never stored
	livePool   []*store.Record // ingested by LiveTrend
	batchPool  []*store.Record // ingested by CleanTrendBatch10k
	liveNext   int             // first livePool record not yet ingested
	batchNext  int             // the same for batchPool
}

var (
	liveBenchOnce sync.Once
	liveBenchFix  *liveBench
	liveBenchErr  error
)

func liveFixture(b *testing.B) *liveBench {
	b.Helper()
	liveBenchOnce.Do(func() { liveBenchFix, liveBenchErr = newLiveBench() })
	if liveBenchErr != nil {
		b.Fatal(liveBenchErr)
	}
	return liveBenchFix
}

func newLiveBench() (*liveBench, error) {
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
		return nil, err
	}
	f := &liveBench{}
	f.eng = vibepm.NewWithStores(vibepm.Options{}, ds.Measurements, ds.Labels)
	if err := f.eng.Fit(); err != nil {
		return nil, err
	}
	// Warm after Fit so every fold carries the baseline's harmonic
	// variant and D_a — the steady state of a deployment that ingested
	// its history through the live path.
	f.eng.WarmLive()
	if f.base, err = f.eng.Baseline(); err != nil {
		return nil, err
	}
	f.ingestLS = stream.NewLiveState(stream.Config{})
	f.ingestLS.SetBaseline(f.base)

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
	// A LiveTrend iteration is ~0.3 ms, and b.Loop runs a fifth past
	// its estimate: a default one-second run takes ~4,000 captures.
	f.livePool = pool(8192, 0.17)
	f.batchPool = pool(256, 0.23)
	return f, nil
}

func serviceAge(_ int, serviceDays float64) float64 { return serviceDays }

// BenchmarkLiveIngest is the per-record fold the live path pays at
// ingest.
func BenchmarkLiveIngest(b *testing.B) {
	f := liveFixture(b)
	i := 0
	b.ReportAllocs()
	for b.Loop() {
		if i == len(f.ingestPool) {
			// A resident record is a hit: start a fresh memo each
			// time round the pool so every iteration is a real fold.
			f.ingestLS = stream.NewLiveState(stream.Config{})
			f.ingestLS.SetBaseline(f.base)
			i = 0
		}
		f.ingestLS.Fold(f.ingestPool[i])
		i++
	}
}

// BenchmarkLiveTrend is the trend rebuild after one new measurement
// through the live memo; BenchmarkCleanTrendBatch10k is the same
// rebuild recomputed from raw waveforms by the sequential reference,
// BatchCleanTrend, on the same store. The reference case is declared,
// and so runs, first: its few dozen ingests leave the store as good as
// new, while LiveTrend's thousands lengthen every series the reference
// would then have to score.
func BenchmarkCleanTrendBatch10k(b *testing.B) {
	f := liveFixture(b)
	benchmarkTrendAfterIngest(b, f.eng, f.eng.BatchCleanTrend, f.batchPool, &f.batchNext)
}

func BenchmarkLiveTrend(b *testing.B) {
	f := liveFixture(b)
	benchmarkTrendAfterIngest(b, f.eng, f.eng.CleanTrend, f.livePool, &f.liveNext)
}

func benchmarkTrendAfterIngest(b *testing.B, eng *vibepm.Engine, trend func(int, vibepm.AgeFunc) ([]vibepm.TrendPoint, error), pool []*store.Record, next *int) {
	b.ReportAllocs()
	for b.Loop() {
		rec := pool[*next%len(pool)]
		*next++
		// A record the store already holds moves no generation, and the
		// rebuild below would be a trend-cache hit: a pool that wraps
		// must stop the run, not flatter it.
		if stored, err := eng.Ingest(rec); err != nil || !stored {
			b.Fatalf("pool of %d fresh captures spent after %d ingests (stored=%v, err=%v): shorten -benchtime or grow the pool", len(pool), *next, stored, err)
		}
		if _, err := trend(rec.PumpID, serviceAge); err != nil {
			b.Fatal(err)
		}
	}
}
