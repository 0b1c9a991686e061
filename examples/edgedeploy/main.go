// Edgedeploy demonstrates the train-once / deploy-anywhere workflow:
// a back-office process fits the full pipeline on the labelled corpus
// and exports the model; an "edge" process (think: the gateway box on
// the factory floor) loads the few-kilobyte model file and classifies
// live measurements without ever seeing the training data.
//
//	go run ./examples/edgedeploy
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"vibepm"
	"vibepm/internal/dataset"
	"vibepm/internal/physics"
)

func main() {
	dir, err := os.MkdirTemp("", "vibepm-edge")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	modelPath := filepath.Join(dir, "model.json")

	// ---- Back office: train and export. ----
	ds, err := dataset.Generate(dataset.Config{
		Seed: 77, DurationDays: 60, MeasurementsPerDay: 0.5, SkipTrend: true,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA: 30, physics.MergedBC: 60, physics.MergedD: 30,
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	trainer := vibepm.NewWithStores(vibepm.Options{}, nil, ds.Labels)
	for _, lr := range ds.LabelledRecords {
		if _, err := trainer.Ingest(lr.Record); err != nil {
			log.Fatal(err)
		}
	}
	if err := trainer.Fit(); err != nil {
		log.Fatal(err)
	}
	if err := trainer.SaveModelFile(modelPath); err != nil {
		log.Fatal(err)
	}
	info, _ := os.Stat(modelPath)
	boundary, _ := trainer.Boundary()
	fmt.Printf("back office: trained on %d labels, exported %s (%d KB, boundary Da=%.3f)\n",
		len(ds.LabelledRecords), filepath.Base(modelPath), info.Size()/1024, boundary)

	// ---- Edge: load and classify, no training data in sight. ----
	edge := vibepm.New(vibepm.Options{})
	if err := edge.LoadModelFile(modelPath); err != nil {
		log.Fatal(err)
	}
	fmt.Println("edge: model loaded; classifying live measurements")
	for _, pumpID := range []int{4, 2, 7} {
		rec := ds.Capture(pumpID, 59.5) // a fresh capture from the floor
		zone, probs, err := edge.Classify(rec)
		if err != nil {
			log.Fatal(err)
		}
		da, _ := edge.Da(rec)
		truth := ds.Fleet.Pump(pumpID).ZoneAt(59.5).Merged()
		fmt.Printf("  pump %d: Da=%.3f -> %v (confidence %.2f; ground truth %v)\n",
			pumpID, da, zone, probs[zone], truth)
	}
}
