package vibepm

import (
	"math"
	"testing"

	"vibepm/internal/dataset"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// tieredCorpus generates a labelled corpus, fits an all-hot engine on
// it, and writes the same records through a tiered durable store whose
// compactor has moved some labelled measurements into cold partitions.
func tieredCorpus(t *testing.T) (hot *Engine, d *store.Durable, ds *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Seed:               11,
		DurationDays:       40,
		MeasurementsPerDay: 1,
		Samples:            512,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA:  30,
			physics.MergedBC: 60,
			physics.MergedD:  30,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// One flat, ordered record sequence, applied with the same
	// unique-key semantics to both stores so the two engines train on
	// identical data.
	var all []*store.Record
	for _, id := range ds.Measurements.Pumps() {
		all = append(all, ds.Measurements.All(id)...)
	}
	for _, lr := range ds.LabelledRecords {
		all = append(all, lr.Record)
	}

	hotM := store.NewMeasurements()
	for _, rec := range all {
		hotM.AddUnique(rec)
	}
	hot = NewWithStores(Options{}, hotM, ds.Labels)
	if err := hot.Fit(); err != nil {
		t.Fatal(err)
	}

	d, _, err = store.OpenDurable(t.TempDir(), store.DurableOptions{
		WAL: store.WALOptions{Policy: store.SyncNever},
		Tiered: &store.TieredOptions{
			HotWindowDays: 5,
			PartitionDays: 10,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Abort)
	for _, rec := range all {
		if _, err := d.AddUnique(rec); err != nil {
			t.Fatal(err)
		}
	}
	stats, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compaction.RecordsEvicted == 0 {
		t.Fatal("nothing compacted; the cold-fit path is not exercised")
	}
	// Sanity: some labelled measurements really did go cold.
	coldLabelled := 0
	for _, lab := range ds.Labels.Valid() {
		if d.Cold().Contains(lab.PumpID, lab.ServiceDays) {
			coldLabelled++
		}
	}
	if coldLabelled == 0 {
		t.Fatal("no labelled measurement went cold; lower the hot window")
	}
	return hot, d, ds
}

// TestEngineFitFromColdTier pins the tiered-fit guarantee: after the
// compactor moves the labelled measurements into cold partitions, an
// engine with the cold tier attached fits to the bit-identical boundary
// an all-hot engine reaches — the exact float64 round trip of the
// partition codec carried all the way through training.
func TestEngineFitFromColdTier(t *testing.T) {
	engHot, d, ds := tieredCorpus(t)
	wantBoundary, err := engHot.Boundary()
	if err != nil {
		t.Fatal(err)
	}
	engCold := NewWithStores(Options{}, d.Store(), ds.Labels)
	engCold.AttachCold(d.Cold())
	if err := engCold.Fit(); err != nil {
		t.Fatalf("tiered fit: %v", err)
	}
	got, err := engCold.Boundary()
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(got) != math.Float64bits(wantBoundary) {
		t.Fatalf("tiered boundary %v != hot boundary %v", got, wantBoundary)
	}
}

// TestFitPlantsNoColdLabelledRecord: the fit's scan plants the labelled
// records the hot store holds and only those. A labelled record read
// back from a cold partition is a fresh decode no store keeps; planting
// it would hold its waveform for the life of the engine.
func TestFitPlantsNoColdLabelledRecord(t *testing.T) {
	_, d, ds := tieredCorpus(t)
	hotLabelled := map[*store.Record]bool{}
	for _, lab := range ds.Labels.Valid() {
		for _, rec := range d.Store().Query(lab.PumpID, lab.ServiceDays, lab.ServiceDays) {
			hotLabelled[rec] = true
		}
	}
	eng := NewWithStores(Options{}, d.Store(), ds.Labels)
	eng.AttachCold(d.Cold())
	if err := eng.Fit(); err != nil {
		t.Fatal(err)
	}
	if len(hotLabelled) == 0 {
		t.Fatal("fixture: no labelled measurement stayed hot")
	}
	if got := eng.Live().Size(); got != len(hotLabelled) {
		t.Fatalf("the fit planted %d records; the hot store holds %d labelled ones", got, len(hotLabelled))
	}
}
