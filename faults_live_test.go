package vibepm_test

import (
	"math/rand"
	"reflect"
	"testing"

	"vibepm"
	"vibepm/internal/feature"
	"vibepm/internal/store"
)

// compareFaults checks every pump's FaultStatus — memo-served, folded
// at ingest — against det.Detect on the pump's latest record, the pure
// function the memo holds (reflect.DeepEqual on the full report,
// evidence values included).
func compareFaults(t *testing.T, ctx string, eng *vibepm.Engine, det *feature.FaultDetector) {
	t.Helper()
	for _, id := range eng.Measurements().Pumps() {
		status, err := eng.FaultStatus(id)
		if err != nil {
			t.Fatalf("%s: pump %d: %v", ctx, id, err)
		}
		if want := det.Detect(eng.Measurements().Latest(id)); !reflect.DeepEqual(status.FaultReport, want) {
			t.Fatalf("%s: pump %d fault report diverged:\nserved:    %#v\nreference: %#v", ctx, id, status.FaultReport, want)
		}
	}
}

// TestFaultReportLiveBatchEquivalence is the fault-taxonomy arm of the
// equivalence proof harness: an engine that folded records (and so
// classified them) at ingest, in randomized order, must serve exactly
// what feature.NewFaultDetector(def).Detect says of each pump's
// latest record. Detection is a pure function of the record, so no
// ingestion order, fold timing, or memo state may leak into the report.
func TestFaultReportLiveBatchEquivalence(t *testing.T) {
	ds := liveCorpus(t)
	records := streamRecords(ds)
	def := vibepm.MachineSpec{}
	ref := feature.NewFaultDetector(def)

	for trial := 0; trial < 8; trial++ {
		rng := rand.New(rand.NewSource(int64(3000 + trial)))
		shuffled := append([]*vibepm.Record(nil), records...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		eng := vibepm.NewWithStores(vibepm.Options{}, store.NewMeasurements(), ds.Labels)
		eng.EnableFaults(def, vibepm.FaultOptions{})
		for _, rec := range shuffled {
			eng.Ingest(rec)
		}
		compareFaults(t, "shuffled ingest", eng, ref)
	}
}

// TestFaultReportSpecUpdateInvalidates proves the copy-on-write spec
// path through the live memo: after SetMachineSpec the engine must serve
// reports of the new detector identity — the reference detector's
// WithSpec successor — not the ones folded under the old.
func TestFaultReportSpecUpdateInvalidates(t *testing.T) {
	ds := liveCorpus(t)
	def := vibepm.MachineSpec{}
	eng := vibepm.NewWithStores(vibepm.Options{}, store.NewMeasurements(), ds.Labels)
	eng.EnableFaults(def, vibepm.FaultOptions{})
	for _, rec := range streamRecords(ds) {
		eng.Ingest(rec)
	}

	target := ds.Measurements.Pumps()[0]
	// Warm the memo against the original detector.
	compareFaults(t, "before the spec update", eng, feature.NewFaultDetector(def))
	// Pin an implausible rotor speed for one pump.
	spec := vibepm.MachineSpec{RotorHz: 17}
	if err := eng.SetMachineSpec(target, spec); err != nil {
		t.Fatal(err)
	}
	compareFaults(t, "after the spec update", eng, feature.NewFaultDetector(def).WithSpec(target, spec))
	if status, _ := eng.FaultStatus(target); status.RotorHz != 17 {
		t.Fatalf("pump %d ignored the pinned rotor: %+v", target, status)
	}
}
