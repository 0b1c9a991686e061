// Quickstart: feed the engine a labelled vibration corpus, fit the
// pipeline, and classify a fresh measurement.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"vibepm"
	"vibepm/internal/dataset"
	"vibepm/internal/physics"
)

func main() {
	// 1. Obtain data. Here we simulate a small fab corpus; in a real
	// deployment the measurements arrive through the gateway and the
	// labels from the fab's domain experts.
	ds, err := dataset.Generate(dataset.Config{
		Seed:               42,
		DurationDays:       40,
		MeasurementsPerDay: 1,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA:  30,
			physics.MergedBC: 60,
			physics.MergedD:  30,
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	// 2. Build the engine over the stores: the measurement store holds
	// every capture Generate made, trend and labelled alike.
	eng := vibepm.NewWithStores(vibepm.Options{}, ds.Measurements, ds.Labels)

	// 3. Fit the full pipeline: Zone A baseline, harmonic features,
	// classifier, and the BC/D decision boundary.
	if err := eng.Fit(); err != nil {
		log.Fatal(err)
	}
	boundary, _ := eng.Boundary()
	fmt.Printf("trained on %d labels; Zone BC/D boundary at Da = %.3f\n",
		len(ds.LabelledRecords), boundary)

	// 4. Ingest a fresh measurement from each pump and classify it.
	// Ingest validates the record and reports whether the store took it
	// (false for a repeat of a held pump and service time).
	for _, pump := range ds.Fleet.Pumps[:4] {
		rec := ds.Capture(pump.ID(), 39.9)
		if _, err := eng.Ingest(rec); err != nil {
			log.Fatal(err)
		}
		zone, probs, err := eng.Classify(rec)
		if err != nil {
			log.Fatal(err)
		}
		da, _ := eng.Da(rec)
		fmt.Printf("pump %2d: Da=%.3f -> %v (P[A]=%.2f P[BC]=%.2f P[D]=%.2f; truth %v)\n",
			pump.ID(), da, zone,
			probs[vibepm.ZoneA], probs[vibepm.ZoneBC], probs[vibepm.ZoneD],
			pump.ZoneAt(39.9).Merged())
	}

	// 5. Learn the fleet lifetime models and project RUL.
	age := func(pumpID int, serviceDays float64) float64 {
		return ds.Fleet.Pump(pumpID).UnitAgeDays(serviceDays)
	}
	models, err := eng.LearnLifetimeModels(age)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ndiscovered %d lifetime model(s)\n", len(models.Models))
	for _, pump := range ds.Fleet.Pumps[:4] {
		rul, modelIdx, err := eng.PredictRUL(pump.ID(), age)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pump %2d: predicted RUL %.0f days (model %d; ground truth %.0f days)\n",
			pump.ID(), rul, modelIdx+1, pump.RemainingDays(40))
	}
}
