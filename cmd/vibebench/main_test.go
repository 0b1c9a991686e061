package main

import (
	"testing"

	"vibepm/internal/experiments"
)

// TestExperimentsArePureFunctionsOfTheCorpus pins what the experiments
// package promises: an experiment reads the corpus and leaves it as
// NewCorpus returned it, so what it prints does not depend on which
// experiments ran before it. The whole catalogue runs forward on one
// small corpus and in reverse on a second one of the same seed.
func TestExperimentsArePureFunctionsOfTheCorpus(t *testing.T) {
	const seed = 1
	runAll := func(order []experiment) map[string]string {
		t.Helper()
		c, err := experiments.NewCorpus(experiments.Small, seed)
		if err != nil {
			t.Fatal(err)
		}
		m := c.Dataset.Measurements
		records, generation := m.Len(), m.GenerationTotal()
		out := map[string]string{}
		for _, e := range order {
			text, err := e.text(c, seed)
			if err != nil {
				t.Fatalf("%s: %v", e.id, err)
			}
			out[e.id] = text
			if m.Len() != records || m.GenerationTotal() != generation {
				t.Fatalf("%s wrote to the corpus it read: %d → %d records, store generation %d → %d",
					e.id, records, m.Len(), generation, m.GenerationTotal())
			}
		}
		return out
	}
	reversed := make([]experiment, len(catalogue))
	for i, e := range catalogue {
		reversed[len(catalogue)-1-i] = e
	}
	forward, backward := runAll(catalogue), runAll(reversed)
	for _, e := range catalogue {
		if forward[e.id] != backward[e.id] {
			t.Errorf("%s prints differently after its successors than after its predecessors:\n--- forward\n%s--- reversed\n%s",
				e.id, forward[e.id], backward[e.id])
		}
	}
}
