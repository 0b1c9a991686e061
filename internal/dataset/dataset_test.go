package dataset

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"vibepm/internal/physics"
)

// smallConfig keeps generation fast for unit tests.
func smallConfig(seed int64) Config {
	return Config{
		Seed:               seed,
		DurationDays:       30,
		MeasurementsPerDay: 0.5,
		Samples:            256,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA:  30,
			physics.MergedBC: 60,
			physics.MergedD:  30,
		},
	}
}

func TestGenerateQuotas(t *testing.T) {
	ds, err := Generate(smallConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[physics.MergedZone]int{}
	for _, lr := range ds.LabelledRecords {
		counts[lr.Zone]++
	}
	if counts[physics.MergedA] != 30 || counts[physics.MergedBC] != 60 || counts[physics.MergedD] != 30 {
		t.Fatalf("label counts %v", counts)
	}
	// Ground truth agrees with the label for valid records.
	for _, lr := range ds.ValidLabelled() {
		pump := ds.Fleet.Pump(lr.Record.PumpID)
		if pump.ZoneAt(lr.Record.ServiceDays).Merged() != lr.Zone {
			t.Fatalf("label/ground-truth mismatch for pump %d day %.2f", lr.Record.PumpID, lr.Record.ServiceDays)
		}
	}
}

func TestGenerateInvalidFraction(t *testing.T) {
	// Enough labels that the 1% mistake rate shows: ~12 of 1,200.
	cfg := smallConfig(2)
	cfg.LabelCounts = map[physics.MergedZone]int{
		physics.MergedA:  300,
		physics.MergedBC: 600,
		physics.MergedD:  300,
	}
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	invalid := len(ds.LabelledRecords) - len(ds.ValidLabelled())
	if invalid == 0 {
		t.Fatalf("no invalid labels at a %g fraction", invalidLabelFraction)
	}
	frac := float64(invalid) / float64(len(ds.LabelledRecords))
	if frac < invalidLabelFraction/3 || frac > 3*invalidLabelFraction {
		t.Fatalf("invalid fraction %.4f, want ≈ %g", frac, invalidLabelFraction)
	}
	// The label store mirrors the records.
	if ds.Labels.Len() != len(ds.LabelledRecords) {
		t.Fatalf("label store %d vs %d records", ds.Labels.Len(), len(ds.LabelledRecords))
	}
	if len(ds.Labels.Valid()) != len(ds.ValidLabelled()) {
		t.Fatal("valid counts disagree")
	}
}

func TestGenerateTrendDensity(t *testing.T) {
	ds, err := Generate(smallConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	// 12 pumps × 30 days × 0.5/day = 180 trend measurements, beside the
	// labelled captures.
	if got := ds.Measurements.Len() - len(ds.LabelledRecords); got != 12*15 {
		t.Fatalf("trend measurements %d", got)
	}
	if got := len(ds.Measurements.Pumps()); got != 12 {
		t.Fatalf("pumps %d", got)
	}
}

func TestGenerateSkipTrend(t *testing.T) {
	cfg := smallConfig(4)
	cfg.SkipTrend = true
	ds, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.LabelledRecords) == 0 {
		t.Fatal("labels missing")
	}
	if got := ds.Measurements.Len() - len(ds.LabelledRecords); got != 0 {
		t.Fatalf("trend measurements generated despite SkipTrend: %d", got)
	}
}

// The store Generate returns is complete: every labelled capture is in
// it, so every label pairs with a stored record at zero gap and no
// caller has to add the labelled records back.
func TestGenerateStoreHoldsLabelledCaptures(t *testing.T) {
	ds, err := Generate(smallConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ds.Measurements.Len(), 12*15+len(ds.LabelledRecords); got != want {
		t.Fatalf("store holds %d records, want trend + labelled = %d", got, want)
	}
	for _, lr := range ds.LabelledRecords {
		day := lr.Record.ServiceDays
		if got := ds.Measurements.Query(lr.Record.PumpID, day, day); len(got) != 1 || got[0] != lr.Record {
			t.Fatalf("pump %d day %v: store holds %v, want the labelled record", lr.Record.PumpID, day, got)
		}
	}
	for _, l := range ds.Labels.Valid() {
		if got := ds.Measurements.Query(l.PumpID, l.ServiceDays, l.ServiceDays); len(got) != 1 {
			t.Fatalf("label at pump %d day %v pairs with %d stored records", l.PumpID, l.ServiceDays, len(got))
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(5))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.LabelledRecords) != len(b.LabelledRecords) {
		t.Fatal("label counts differ across runs")
	}
	for i := range a.LabelledRecords {
		ra, rb := a.LabelledRecords[i].Record, b.LabelledRecords[i].Record
		if ra.PumpID != rb.PumpID || ra.ServiceDays != rb.ServiceDays {
			t.Fatal("labelled records differ across runs")
		}
		if ra.Raw[0][0] != rb.Raw[0][0] {
			t.Fatal("raw samples differ across runs")
		}
	}
}

// serializeDataset flattens everything seed-dependent in a dataset —
// every stored measurement (raw samples included) and every label —
// into one byte blob for exact comparison.
func serializeDataset(t *testing.T, ds *Dataset) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := ds.Measurements.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, lr := range ds.LabelledRecords {
		fmt.Fprintf(&buf, "L %d %v %v %t", lr.Record.PumpID, lr.Record.ServiceDays, lr.Zone, lr.Valid)
		for axis := 0; axis < 3; axis++ {
			for _, s := range lr.Record.Raw[axis] {
				fmt.Fprintf(&buf, " %d", s)
			}
		}
		buf.WriteByte('\n')
	}
	for _, l := range ds.Labels.Valid() {
		fmt.Fprintf(&buf, "S %d %v %v %t\n", l.PumpID, l.ServiceDays, l.Zone, l.Valid)
	}
	return buf.Bytes()
}

// TestGenerateWorkersByteIdentical pins the parallel-generation
// contract: any worker count produces exactly the same corpus, raw
// samples and all.
func TestGenerateWorkersByteIdentical(t *testing.T) {
	cfg := smallConfig(11)
	cfg.Workers = 1
	seq, err := Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := serializeDataset(t, seq)
	for _, workers := range []int{0, 3, 8} {
		cfg.Workers = workers
		par, err := Generate(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got := serializeDataset(t, par); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d produced a different corpus (%d vs %d bytes)", workers, len(got), len(want))
		}
	}
}

func TestPaperEventsApplied(t *testing.T) {
	ds, err := Generate(smallConfig(6))
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Events) != 4 {
		t.Fatalf("events %d", len(ds.Events))
	}
	// Pumps 4, 5, 7, 8 carry replacements: a new unit from each event
	// on. Pump 0's unit is never replaced, so it ages with service time.
	for i, id := range []int{4, 5, 7, 8} {
		ev := ds.Events[i]
		if ev.PumpID != id {
			t.Fatalf("event %d is for pump %d, want %d", i, ev.PumpID, id)
		}
		if got := ds.Fleet.Pump(id).UnitAgeDays(ev.AtDays + 1); math.Abs(got-1) > 1e-9 {
			t.Fatalf("pump %d unit age a day after its replacement = %g", id, got)
		}
	}
	p0 := ds.Fleet.Pump(0)
	if got := p0.UnitAgeDays(10) - p0.UnitAgeDays(0); math.Abs(got-10) > 1e-9 {
		t.Fatalf("pump 0 unit aged %g days over 10 days of service", got)
	}
}

func TestDefaultsPaperScale(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Pumps != 12 || cfg.DurationDays != 90 || cfg.Samples != 1024 || cfg.SampleRateHz != 4000 {
		t.Fatalf("defaults: %+v", cfg)
	}
	if cfg.LabelCounts[physics.MergedA] != 700 || cfg.LabelCounts[physics.MergedBC] != 1400 || cfg.LabelCounts[physics.MergedD] != 700 {
		t.Fatalf("label defaults: %v", cfg.LabelCounts)
	}
}
