// Package experiments regenerates every table and figure of the paper's
// evaluation (§II Fig. 5, §IV-A Fig. 8, §IV-B Fig. 9, §V Fig. 10–16 and
// Tables I, III, IV) on the synthetic testbed, plus the ablation
// studies DESIGN.md calls out. Each experiment is a pure function from
// a (seeded) corpus to a printable result, so the same code backs the
// vibebench CLI, the testing.B benchmarks, and the unit tests.
package experiments

import (
	"fmt"

	"vibepm"
	"vibepm/internal/dataset"
	"vibepm/internal/physics"
)

// Scale selects the corpus size.
type Scale int

const (
	// Small is for unit tests: ~130 labels, sparse trends.
	Small Scale = iota
	// Medium is the vibebench default: the paper's 2800 labels with a
	// moderately dense trend (≈8 measurements/day).
	Medium
	// Paper is the full-scale reproduction: 2800 labels and the
	// 155,520-measurement trend of Fig. 15 (144/day × 90 days × 12
	// pumps). Expect minutes of generation time.
	Paper
)

// String names the scale.
func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	case Paper:
		return "paper"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// datasetConfig maps a scale to generation parameters.
func datasetConfig(scale Scale, seed int64) dataset.Config {
	switch scale {
	case Paper:
		return dataset.Config{Seed: seed, MeasurementsPerDay: 144}
	case Medium:
		return dataset.Config{Seed: seed, MeasurementsPerDay: 8}
	default:
		return dataset.Config{
			Seed:               seed,
			DurationDays:       90, // keep the paper's window so RUL lines are anchored
			MeasurementsPerDay: 0.5,
			LabelCounts: map[physics.MergedZone]int{
				physics.MergedA:  30,
				physics.MergedBC: 70,
				physics.MergedD:  30,
			},
		}
	}
}

// Corpus bundles the synthetic testbed with a fitted analysis engine;
// it is shared by the per-figure experiments.
type Corpus struct {
	Scale   Scale
	Seed    int64
	Dataset *dataset.Dataset
	Engine  *vibepm.Engine
}

// NewCorpus generates the dataset at the given scale and fits the
// engine on it.
func NewCorpus(scale Scale, seed int64) (*Corpus, error) {
	ds, err := dataset.Generate(datasetConfig(scale, seed))
	if err != nil {
		return nil, err
	}
	eng := vibepm.NewWithStores(vibepm.Options{}, ds.Measurements, ds.Labels)
	if err := eng.Fit(); err != nil {
		return nil, err
	}
	return &Corpus{Scale: scale, Seed: seed, Dataset: ds, Engine: eng}, nil
}

// AgeOf maps (pump, service time) to equipment age using the factory
// database's install and replacement dates (simulated ground truth the
// plant would know).
func (c *Corpus) AgeOf(pumpID int, serviceDays float64) float64 {
	return c.Dataset.Fleet.Pump(pumpID).UnitAgeDays(serviceDays)
}

// FleetTemperature adapts the corpus fleet to the FICS temperature
// interface.
type FleetTemperature struct{ Fleet *physics.Fleet }

// Temperature returns the FICS reading for one pump.
func (f FleetTemperature) Temperature(pumpID int, serviceDays float64) float64 {
	p := f.Fleet.Pump(pumpID)
	if p == nil {
		return 0
	}
	return p.TemperatureAt(serviceDays)
}

// Temp returns the corpus's FICS temperature source.
func (c *Corpus) Temp() FleetTemperature {
	return FleetTemperature{Fleet: c.Dataset.Fleet}
}
