package stream

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"vibepm/internal/feature"
	"vibepm/internal/obs"
	"vibepm/internal/store"
)

// detects is the fault classifier's own count: one observation per
// FaultDetector.Detect call.
var detects = obs.Default.Histogram("vibepm_feature_detect_seconds", obs.StageBuckets)

// warmStore builds a multi-pump store for warm-up tests.
func warmStore(pumps, perPump, samples int) *store.Measurements {
	m := store.NewMeasurements()
	for p := 0; p < pumps; p++ {
		for i := 0; i < perPump; i++ {
			m.AddUnique(mkRec(p, float64(i)*0.5, samples))
		}
	}
	return m
}

// TestWarmWorkerInvariance pins the satellite fix: Warm's workers
// parameter is honored (pumps fan across the pool) and the cached
// feature values are identical at every worker count — bitwise, via
// the same scalar comparisons the batch-equivalence harness uses.
func TestWarmWorkerInvariance(t *testing.T) {
	m := warmStore(9, 7, 128)
	want := m.Len()

	type snap struct {
		offsets [3]float64
		rms     float64
		vrms    float64
	}
	var ref map[int][]snap
	for _, workers := range []int{1, 2, 4, 16, 0} {
		ls := NewLiveState(Config{})
		total := ls.Warm(m, workers)
		if total != want {
			t.Fatalf("workers=%d: Warm folded %d records, want %d", workers, total, want)
		}
		if ls.Size() != want {
			t.Fatalf("workers=%d: cache size %d, want %d", workers, ls.Size(), want)
		}
		got := make(map[int][]snap)
		for _, pumpID := range m.Pumps() {
			recs := m.All(pumpID)
			for _, f := range ls.ensure(pumpID, recs, 0) {
				got[pumpID] = append(got[pumpID], snap{f.Offsets, f.RMS, f.VRMS})
			}
		}
		if ref == nil {
			ref = got
			continue
		}
		for pumpID, feats := range ref {
			for i, w := range feats {
				g := got[pumpID][i]
				if g.offsets != w.offsets || !eqF64(g.rms, w.rms) || !eqF64(g.vrms, w.vrms) {
					t.Fatalf("workers=%d: pump %d record %d features diverged", workers, pumpID, i)
				}
			}
		}
	}
}

// TestWarmClassifiesEachPumpsLatest: a warm-up over P pumps × N
// records with a baseline and a detector installed folds every record
// but runs the detector P times — once per pump, on its latest record,
// the one a fault status reads. That report is then a memo hit, equal
// to the detector's own.
func TestWarmClassifiesEachPumpsLatest(t *testing.T) {
	const pumps, perPump = 5, 7
	m := warmStore(pumps, perPump, 256)
	det := feature.NewFaultDetector(feature.MachineSpec{})
	ls := NewLiveState(Config{})
	ls.SetBaseline(trainBaseline(t, feature.Options{}))
	ls.SetFaultDetector(det)

	d0 := detects.Count()
	if total := ls.Warm(m, 2); total != pumps*perPump {
		t.Fatalf("Warm folded %d records, want %d", total, pumps*perPump)
	}
	if d := detects.Count() - d0; d != pumps {
		t.Fatalf("Warm ran the detector %d times, want %d (one per pump)", d, pumps)
	}
	for _, id := range m.Pumps() {
		latest := m.Latest(id)
		c0 := readCounters()
		got := ls.FaultReport(latest, det)
		if d := readCounters().since(c0); d != (counters{hits: 1}) {
			t.Errorf("pump %d: the latest report moved %+v, want one hit", id, d)
		}
		if !reflect.DeepEqual(got, det.Detect(latest)) {
			t.Errorf("pump %d: the latest report diverged from Detect", id)
		}
	}
}

// TestFaultReportClassifiesAnEarlierRecordOnce: after a warm-up, a
// record that is not its pump's latest is classified on first ask — one
// miss, no fold, the detector's value — and kept: later asks are hits,
// and the memo does not grow.
func TestFaultReportClassifiesAnEarlierRecordOnce(t *testing.T) {
	m := warmStore(3, 5, 256)
	det := feature.NewFaultDetector(feature.MachineSpec{})
	ls := NewLiveState(Config{})
	ls.SetBaseline(trainBaseline(t, feature.Options{}))
	ls.SetFaultDetector(det)
	ls.Warm(m, 1)

	rec := m.All(1)[2]
	want := det.Detect(rec)
	size := ls.Size()
	for round, moved := range []counters{{misses: 1}, {hits: 1}, {hits: 1}} {
		d0, c0 := detects.Count(), readCounters()
		if got := ls.FaultReport(rec, det); !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: FaultReport diverged from Detect", round)
		}
		if d := readCounters().since(c0); d != moved {
			t.Errorf("round %d: counters moved %+v, want %+v", round, d, moved)
		}
		if d, ran := detects.Count()-d0, moved.misses; d != ran {
			t.Errorf("round %d: ran the detector %d times, want %d", round, d, ran)
		}
	}
	if ls.Size() != size {
		t.Errorf("memo size %d -> %d", size, ls.Size())
	}
}

// TestWarmConcurrentIngest drives Warm, ingest-time folds, fault
// queries and assemblies concurrently — the restart-under-traffic
// scenario vibed's overlapped recovery creates. Run under -race this
// is the concurrent-warm data-race probe; the assertions check the
// cache converges to exactly the store's contents, that no record was
// classified twice, and that the warm-up classified no recovered
// record but a reader's or a pump's latest.
func TestWarmConcurrentIngest(t *testing.T) {
	const pumps, perPump = 8, 6
	m := warmStore(pumps, perPump, 128)
	recovered := make(map[int][]*store.Record, pumps)
	for _, id := range m.Pumps() {
		recovered[id] = m.All(id)
	}
	det := feature.NewFaultDetector(feature.MachineSpec{})
	ls := NewLiveState(Config{})
	ls.SetFaultDetector(det)
	// Fault readers ask for each pump's first half of recovered records.
	asked := make(map[*store.Record]bool)
	for _, recs := range recovered {
		for _, rec := range recs[:perPump/2] {
			asked[rec] = true
		}
	}
	d0 := detects.Count()

	var wg sync.WaitGroup
	wg.Add(5)
	go func() {
		defer wg.Done()
		ls.Warm(m, 4)
	}()
	go func() {
		// Ingest keeps flowing mid-warm: fresh records land in the store
		// and fold, interleaving with the warm-up's Ensure calls.
		defer wg.Done()
		for i := 0; i < 40; i++ {
			rec := mkRec(i%8, 100+float64(i), 128)
			if m.AddUnique(rec) {
				ls.Fold(rec)
			}
		}
	}()
	go func() {
		// Queries race the warm-up too.
		defer wg.Done()
		for i := 0; i < 20; i++ {
			pumpID := i % 8
			ls.OffsetRows(pumpID, m.All(pumpID))
		}
	}()
	for r := 0; r < 2; r++ {
		// Two fault readers race it and each other.
		go func() {
			defer wg.Done()
			for rec := range asked {
				ls.FaultReport(rec, det)
			}
		}()
	}
	wg.Wait()

	// A second warm is an all-hits no-op that returns the full count.
	if total := ls.Warm(m, 2); total != m.Len() {
		t.Fatalf("post-race warm folded %d, want %d", total, m.Len())
	}
	if ls.Size() != m.Len() {
		t.Fatalf("cache size %d, want %d", ls.Size(), m.Len())
	}

	classified := 0
	for _, id := range m.Pumps() {
		for _, rec := range m.All(id) {
			if keptBy(ls, rec).faultFor != det {
				continue
			}
			classified++
			if i := slices.Index(recovered[id], rec); i >= 0 && i != perPump-1 && !asked[rec] {
				t.Errorf("pump %d: recovered record %d was classified, yet no reader asked for it", id, i)
			}
		}
	}
	if d := detects.Count() - d0; d != uint64(classified) {
		t.Errorf("the detector ran %d times for %d classified records", d, classified)
	}
	for rec := range asked {
		if !reflect.DeepEqual(ls.FaultReport(rec, det), det.Detect(rec)) {
			t.Fatalf("pump %d day %g: report diverged from Detect", rec.PumpID, rec.ServiceDays)
		}
	}
}
