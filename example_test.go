package vibepm_test

import (
	"fmt"
	"sort"

	"vibepm"
	"vibepm/internal/dataset"
	"vibepm/internal/physics"
)

// exampleCorpus builds a small deterministic corpus for the runnable
// examples.
func exampleCorpus() (*vibepm.Engine, *dataset.Dataset) {
	ds, err := dataset.Generate(dataset.Config{
		Seed: 42, DurationDays: 40, MeasurementsPerDay: 1,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA: 30, physics.MergedBC: 60, physics.MergedD: 30,
		},
	})
	if err != nil {
		panic(err)
	}
	eng := vibepm.NewWithStores(vibepm.Options{}, ds.Measurements, ds.Labels)
	if err := eng.Fit(); err != nil {
		panic(err)
	}
	return eng, ds
}

// ExampleEngine_Classify fits the pipeline on a labelled corpus and
// classifies fresh measurements from a healthy and a worn pump.
func ExampleEngine_Classify() {
	eng, ds := exampleCorpus()
	for _, pumpID := range []int{4, 2} { // 4 is nearly new, 2 is worn out
		rec := ds.Capture(pumpID, 39.5)
		zone, _, err := eng.Classify(rec)
		if err != nil {
			panic(err)
		}
		fmt.Printf("pump %d: %v\n", pumpID, zone)
	}
	// Output:
	// pump 4: Zone A
	// pump 2: Zone D
}

// ExampleEngine_PredictRUL learns the fleet lifetime models and ranks
// two pumps by remaining useful life.
func ExampleEngine_PredictRUL() {
	eng, ds := exampleCorpus()
	age := func(pumpID int, serviceDays float64) float64 {
		return ds.Fleet.Pump(pumpID).UnitAgeDays(serviceDays)
	}
	if _, err := eng.LearnLifetimeModels(age); err != nil {
		panic(err)
	}
	type ranked struct {
		id  int
		rul float64
	}
	var rows []ranked
	for _, id := range []int{2, 4} {
		rul, _, err := eng.PredictRUL(id, age)
		if err != nil {
			panic(err)
		}
		rows = append(rows, ranked{id, rul})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].rul < rows[j].rul })
	fmt.Printf("most urgent: pump %d (negative RUL: %v)\n", rows[0].id, rows[0].rul < 0)
	fmt.Printf("healthiest:  pump %d (positive RUL: %v)\n", rows[1].id, rows[1].rul > 0)
	// Output:
	// most urgent: pump 2 (negative RUL: true)
	// healthiest:  pump 4 (positive RUL: true)
}

// ExampleDefaultCostModel converts wasted remaining life into the
// paper's dollars.
func ExampleDefaultCostModel() {
	cost := vibepm.DefaultCostModel()
	fmt.Printf("US$ %.0f\n", cost.WastedValueUSD(390))
	// Output:
	// US$ 39000
}
