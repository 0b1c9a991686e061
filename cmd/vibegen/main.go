// Command vibegen generates a synthetic vibration-measurement corpus
// (measurements + expert labels) and writes it to disk in the store's
// binary/JSON formats, so other tools (vibed, downstream analyses) can
// load it without re-simulating.
//
// Usage:
//
//	vibegen -out data/ -days 90 -per-day 8 -seed 1
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"vibepm/internal/dataset"
	"vibepm/internal/physics"
)

func main() {
	var (
		out     = flag.String("out", "data", "output directory")
		days    = flag.Float64("days", 90, "experiment window in days")
		perDay  = flag.Float64("per-day", 8, "trend measurements per pump per day")
		seed    = flag.Int64("seed", 1, "generation seed")
		pumps   = flag.Int("pumps", 12, "fleet size")
		labelsA = flag.Int("labels-a", 700, "Zone A labels")
		labelsB = flag.Int("labels-bc", 1400, "Zone BC labels")
		labelsD = flag.Int("labels-d", 700, "Zone D labels")
		workers = flag.Int("workers", 0, "capture workers (0 = one per CPU); output is identical at any count")
	)
	flag.Parse()

	cfg := dataset.Config{
		Pumps:              *pumps,
		Seed:               *seed,
		DurationDays:       *days,
		MeasurementsPerDay: *perDay,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA:  *labelsA,
			physics.MergedBC: *labelsB,
			physics.MergedD:  *labelsD,
		},
		Workers: *workers,
	}
	fmt.Printf("generating %d pumps x %.0f days at %.1f measurements/day...\n", *pumps, *days, *perDay)
	ds, err := dataset.Generate(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "generate: %v\n", err)
		os.Exit(1)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "mkdir: %v\n", err)
		os.Exit(1)
	}
	mpath := filepath.Join(*out, "measurements.bin")
	lpath := filepath.Join(*out, "labels.json")
	if err := ds.Measurements.SaveFile(mpath); err != nil {
		fmt.Fprintf(os.Stderr, "save measurements: %v\n", err)
		os.Exit(1)
	}
	if err := ds.Labels.SaveFile(lpath); err != nil {
		fmt.Fprintf(os.Stderr, "save labels: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %d measurements to %s\n", ds.Measurements.Len(), mpath)
	fmt.Printf("wrote %d labels to %s\n", ds.Labels.Len(), lpath)
}
