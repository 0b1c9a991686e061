package stream

import (
	"math"
	"testing"

	"vibepm/internal/feature"
	"vibepm/internal/preprocess"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// mkRec synthesizes one deterministic capture: a two-tone signal with a
// per-record phase so no two records are identical.
func mkRec(pumpID int, serviceDays float64, samples int) *store.Record {
	rec := &store.Record{
		PumpID:       pumpID,
		ServiceDays:  serviceDays,
		SampleRateHz: 4000,
		ScaleG:       1.0 / 4096,
	}
	for axis := 0; axis < 3; axis++ {
		raw := make([]int16, samples)
		phase := serviceDays + float64(axis)
		for i := range raw {
			x := float64(i)
			raw[i] = int16(2000*math.Sin(2*math.Pi*50*x/4000+phase) +
				500*math.Sin(2*math.Pi*300*x/4000) + 100*phase)
		}
		rec.Raw[axis] = raw
	}
	return rec
}

// eqF64 treats NaN as equal to NaN: the equivalence claim is bitwise
// sameness of the computation, not IEEE comparability.
func eqF64(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// trainBaseline fits a Zone A baseline over a few healthy records so
// the D_a path has real normalizers.
func trainBaseline(t *testing.T, opt feature.Options) *feature.Baseline {
	t.Helper()
	var healthy []*store.Record
	for i := 0; i < 4; i++ {
		healthy = append(healthy, mkRec(0, float64(i), 256))
	}
	b, err := feature.TrainBaseline(healthy, opt)
	if err != nil {
		t.Fatal(err)
	}
	hs := make([]feature.Harmonic, len(healthy))
	for i, rec := range healthy {
		hs[i] = feature.HarmonicOfRecord(rec, opt)
	}
	b.SetNormalizers(hs...)
	return b
}

// TestFoldMatchesDirect proves the cached scalars are bit-identical to
// the batch functions they memoize.
func TestFoldMatchesDirect(t *testing.T) {
	ls := NewLiveState(Config{})
	recs := make([]*store.Record, 8)
	for i := range recs {
		recs[i] = mkRec(3, float64(i), 256)
		ls.Fold(recs[i])
	}
	if ls.Size() != len(recs) {
		t.Fatalf("size %d, want %d", ls.Size(), len(recs))
	}
	feats := ls.ensure(3, recs, 0)
	for i, f := range feats {
		rec := recs[i]
		if f.Offsets != transform.Offsets(rec) {
			t.Fatalf("record %d: offsets diverged", i)
		}
		if !eqF64(f.RMS, transform.RMS(rec)) {
			t.Fatalf("record %d: RMS %g != %g", i, f.RMS, transform.RMS(rec))
		}
		if !eqF64(f.VRMS, transform.VelocityRMS(rec, 10, 1000)) {
			t.Fatalf("record %d: VRMS %g != %g", i, f.VRMS, transform.VelocityRMS(rec, 10, 1000))
		}
	}
}

// TestOffsetRowsMatchesAverages pins the mean-shift input assembly to
// preprocess.Averages.
func TestOffsetRowsMatchesAverages(t *testing.T) {
	ls := NewLiveState(Config{})
	recs := make([]*store.Record, 6)
	for i := range recs {
		recs[i] = mkRec(1, float64(i)*0.5, 128)
	}
	rows := ls.OffsetRows(1, recs)
	want := preprocess.Averages(recs)
	for i := range want {
		for d := 0; d < 3; d++ {
			if !eqF64(rows[i][d], want[i][d]) {
				t.Fatalf("row %d axis %d: %g != %g", i, d, rows[i][d], want[i][d])
			}
		}
	}
}

// TestDaMatchesBaseline proves cache-served D_a equals Baseline.Da for
// folded, lazily-computed, and re-baselined records.
func TestDaMatchesBaseline(t *testing.T) {
	opt := feature.Options{}
	base := trainBaseline(t, opt)
	ls := NewLiveState(Config{Harmonic: opt})
	ls.SetBaseline(base)
	folded := mkRec(2, 10, 256)
	ls.Fold(folded)
	cold := mkRec(2, 11, 256) // never folded: the slow path
	for _, rec := range []*store.Record{folded, cold} {
		want, wantErr := base.Da(rec)
		got, gotErr := ls.Da(rec)
		if (gotErr == nil) != (wantErr == nil) || !eqF64(got, want) {
			t.Fatalf("Da(%g) = (%g, %v), want (%g, %v)", rec.ServiceDays, got, gotErr, want, wantErr)
		}
		// Second call is a pure cache hit and must not drift.
		again, _ := ls.Da(rec)
		if !eqF64(again, want) {
			t.Fatalf("cached Da drifted: %g != %g", again, want)
		}
	}
	// A re-Fit installs a new baseline identity: the cache must score
	// against it afresh, not serve the old baseline's value.
	base2 := trainBaseline(t, feature.Options{HannWindow: 8})
	ls.SetBaseline(base2)
	want2, _ := base2.Da(folded)
	got2, _ := ls.Da(folded)
	if !eqF64(got2, want2) {
		t.Fatalf("rebaselined Da %g != %g", got2, want2)
	}
}

// TestHarmonicsMultiOption: a live state's Harmonics answers for its
// configured option set, whichever that is, and equals HarmonicOfRecord.
func TestHarmonicsMultiOption(t *testing.T) {
	optA := feature.Options{}
	optB := feature.Options{NumPeaks: 8, SmoothingHz: 31.25}
	for _, opt := range []feature.Options{optA, optB} {
		ls := NewLiveState(Config{Harmonic: opt})
		recs := []*store.Record{mkRec(0, 1, 256), mkRec(0, 2, 256)}
		for _, rec := range recs {
			ls.Fold(rec)
		}
		got := ls.Harmonics(recs, nil)
		for i, rec := range recs {
			want := feature.HarmonicOfRecord(rec, opt)
			if len(got[i].Peaks) != len(want.Peaks) {
				t.Fatalf("opt %+v record %d: %d peaks, want %d", opt, i, len(got[i].Peaks), len(want.Peaks))
			}
			for p := range want.Peaks {
				if got[i].Peaks[p] != want.Peaks[p] {
					t.Fatalf("opt %+v record %d peak %d diverged", opt, i, p)
				}
			}
		}
	}
}

// TestMetricFuncMatchesTransforms pins the REST trend metrics to the
// transform layer.
func TestMetricFuncMatchesTransforms(t *testing.T) {
	ls := NewLiveState(Config{})
	rec := mkRec(5, 3, 256)
	rms, ok := ls.MetricFunc("rms")
	if !ok {
		t.Fatal("rms metric missing")
	}
	if !eqF64(rms(rec), transform.RMS(rec)) {
		t.Fatalf("rms %g != %g", rms(rec), transform.RMS(rec))
	}
	vrms, ok := ls.MetricFunc("vrms")
	if !ok {
		t.Fatal("vrms metric missing")
	}
	if !eqF64(vrms(rec), transform.VelocityRMS(rec, 10, 1000)) {
		t.Fatalf("vrms %g != %g", vrms(rec), transform.VelocityRMS(rec, 10, 1000))
	}
	if _, ok := ls.MetricFunc("nope"); ok {
		t.Fatal("unknown metric accepted")
	}
}

// TestEvictOrphans simulates a store reload: the replaced record
// pointers orphan the old cache entries, and assembly compacts the memo
// back to the live series.
func TestEvictOrphans(t *testing.T) {
	ls := NewLiveState(Config{})
	const n = 32
	old := make([]*store.Record, n)
	for i := range old {
		old[i] = mkRec(4, float64(i), 64)
		ls.Fold(old[i])
	}
	// The reload: same values, new pointers.
	fresh := make([]*store.Record, n)
	for i := range fresh {
		fresh[i] = mkRec(4, float64(i), 64)
	}
	feats := ls.ensure(4, fresh, 0)
	for i, f := range feats {
		if !eqF64(f.RMS, transform.RMS(fresh[i])) {
			t.Fatalf("post-reload record %d RMS diverged", i)
		}
	}
	// The doubled memo (old + fresh pointers) crossed the compaction
	// threshold, so the assembly evicted the orphans.
	if ls.Size() != n {
		t.Fatalf("size after compaction %d, want %d", ls.Size(), n)
	}
}

// TestWarmFromWALReplay proves the recovery path: a live state rebuilt
// by Warm over a store recovered from snapshot + WAL replay serves
// features bit-identical to the pre-crash live state.
func TestWarmFromWALReplay(t *testing.T) {
	dir := t.TempDir()
	d, _, err := store.OpenDurable(dir, store.DurableOptions{WAL: store.WALOptions{Policy: store.SyncNever, SegmentBytes: 1 << 14}})
	if err != nil {
		t.Fatal(err)
	}
	before := NewLiveState(Config{})
	type snap struct {
		pump int
		day  float64
		rms  float64
		vrms float64
	}
	var want []snap
	for i := 0; i < 30; i++ {
		rec := mkRec(i%4, float64(i), 128)
		stored, err := d.AddUnique(rec)
		if err != nil || !stored {
			t.Fatalf("add %d: stored=%v err=%v", i, stored, err)
		}
		before.Fold(rec)
		f := before.feat(rec)
		want = append(want, snap{pump: rec.PumpID, day: rec.ServiceDays, rms: f.RMS, vrms: f.VRMS})
	}
	// Mid-stream checkpoint so recovery exercises snapshot + WAL tail.
	if _, err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 30; i < 40; i++ {
		rec := mkRec(i%4, float64(i), 128)
		if _, err := d.AddUnique(rec); err != nil {
			t.Fatal(err)
		}
		before.Fold(rec)
		f := before.feat(rec)
		want = append(want, snap{pump: rec.PumpID, day: rec.ServiceDays, rms: f.RMS, vrms: f.VRMS})
	}
	d.Abort() // crash: no final checkpoint

	re, _, err := store.OpenDurable(dir, store.DurableOptions{WAL: store.WALOptions{Policy: store.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Abort()
	after := NewLiveState(Config{})
	warmed := after.Warm(re.Store(), 0)
	if warmed != 40 || after.Size() != 40 {
		t.Fatalf("warmed %d records (size %d), want 40", warmed, after.Size())
	}
	byKey := map[[2]float64]snap{}
	for _, s := range want {
		byKey[[2]float64{float64(s.pump), s.day}] = s
	}
	for _, id := range re.Store().Pumps() {
		recs := re.Store().All(id)
		feats := after.ensure(id, recs, 0)
		for i, rec := range recs {
			s, ok := byKey[[2]float64{float64(id), rec.ServiceDays}]
			if !ok {
				t.Fatalf("pump %d day %g not in pre-crash state", id, rec.ServiceDays)
			}
			if !eqF64(feats[i].RMS, s.rms) || !eqF64(feats[i].VRMS, s.vrms) {
				t.Fatalf("pump %d day %g: rebuilt features diverged from pre-crash", id, rec.ServiceDays)
			}
		}
	}
}
