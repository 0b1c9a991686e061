// Benchmarks regenerating every table and figure of the paper's
// evaluation, one testing.B per artifact, plus the ablation benches
// DESIGN.md calls out. Each bench exercises the same code path the
// vibebench CLI uses (internal/experiments) on a shared small-scale
// corpus; run vibebench -scale paper for the full-size reproduction.
package vibepm_test

import (
	"sync"
	"testing"

	"vibepm"
	"vibepm/internal/experiments"
)

var (
	benchOnce   sync.Once
	benchCorpus *experiments.Corpus
	benchErr    error
)

func corpus(b *testing.B) *experiments.Corpus {
	b.Helper()
	benchOnce.Do(func() {
		benchCorpus, benchErr = experiments.NewCorpus(experiments.Small, 1)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchCorpus
}

// BenchmarkEngineFitSmall measures the full training pipeline — label
// pairing, baseline training, parallel corpus-wide feature extraction,
// classifier and density fits — on a fresh engine over the shared
// small-scale stores each iteration.
func BenchmarkEngineFitSmall(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		eng := vibepm.NewWithStores(vibepm.Options{}, ds.Measurements, ds.Labels)
		if err := eng.Fit(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPaperPassSmall prices one pass of the paper's evaluation the
// way the repo benchmark's paper_batch workload runs it: a fresh engine
// fitted over the shared small-scale stores, then Fig. 11, the
// Fig. 12–14 sweep, Table III and Fig. 15 on it. A change to how often
// the pass transforms a labelled record shows here.
func BenchmarkPaperPassSmall(b *testing.B) {
	c := corpus(b)
	ds := c.Dataset
	b.ReportAllocs()
	b.ResetTimer()
	for b.Loop() {
		eng := vibepm.NewWithStores(vibepm.Options{}, ds.Measurements, ds.Labels)
		if err := eng.Fit(); err != nil {
			b.Fatal(err)
		}
		pass := &experiments.Corpus{Scale: c.Scale, Seed: c.Seed, Dataset: ds, Engine: eng}
		if _, err := experiments.Fig11(pass); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Sweep(pass); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Table3(pass); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig15(pass); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1SensorSpecs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table1(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5EnergyTradeoff(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8OutlierDetection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(int64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9PeakDistance(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig9(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig10ZonePSD(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(c, 30); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig11Boundary(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig11(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig12to14Classification(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Sweep(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3Confusion(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15LifetimeModels(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig15(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig16PerPumpRUL(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4Savings(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHeadlineSavings(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Headline(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPeakParams(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPeakParams(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationAdaptiveSampling(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationAdaptiveSampling(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationTrendRUL(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationTrendRUL(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationRMS(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationRMS(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationWelch(b *testing.B) {
	c := corpus(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationWelch(c); err != nil {
			b.Fatal(err)
		}
	}
}
