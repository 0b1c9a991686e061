//go:build ignore

// fig15cloud writes fig15-medium.bin: the pooled (equipment age, D_a)
// trend points that Fig. 15's recursive RANSAC runs over in
// `vibebench -scale medium -seed 1` (docs/results/medium-scale.txt), in
// the order Engine.LearnLifetimeModels pools them. Each point is two
// little-endian float64s, age then D_a. Run from the repository root:
//
//	go run ./internal/ransac/testdata/fig15cloud.go
package main

import (
	"encoding/binary"
	"log"
	"math"
	"os"

	"vibepm/internal/experiments"
)

func main() {
	c, err := experiments.NewCorpus(experiments.Medium, 1)
	if err != nil {
		log.Fatal(err)
	}
	var out []byte
	for _, id := range c.Dataset.Measurements.Pumps() {
		trend, err := c.Engine.CleanTrend(id, c.AgeOf)
		if err != nil {
			continue // LearnLifetimeModels skips such a pump too
		}
		for _, p := range trend {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.AgeDays))
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(p.Da))
		}
	}
	if err := os.WriteFile("internal/ransac/testdata/fig15-medium.bin", out, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("%d points", len(out)/16)
}
