package stream

import (
	"errors"
	"math"
	"reflect"
	"testing"
	"time"

	"vibepm/internal/feature"
	"vibepm/internal/obs"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// counters is a reading of the memo's three counters.
type counters struct{ folds, hits, misses uint64 }

func readCounters() counters {
	return counters{metFolds.Value(), metHits.Value(), metMisses.Value()}
}

func (c counters) since(before counters) counters {
	return counters{c.folds - before.folds, c.hits - before.hits, c.misses - before.misses}
}

// TestEveryEntryPointIsOneLookup drives each public entry point over a
// record in each state the memo can hold it in and pins the protocol:
// the value is the direct function's, the record folds at most once,
// and the call counts exactly once — a miss iff it ran DSP.
func TestEveryEntryPointIsOneLookup(t *testing.T) {
	opt := feature.Options{}
	base := trainBaseline(t, opt)
	if base.Opt == opt {
		t.Fatal("fixture: the baseline must pin options the raw fold does not extract")
	}
	det := feature.NewFaultDetector(feature.MachineSpec{})

	states := []struct {
		name                  string
		folded                bool
		lateBase, lateDetects bool // installed only after the fold
	}{
		{name: "never folded"},
		{name: "folded before the baseline", folded: true, lateBase: true},
		{name: "folded before the detector", folded: true, lateDetects: true},
		{name: "folded with both", folded: true},
	}
	entries := []struct {
		name string
		// needs names the lazily filled value the entry point reads;
		// needsVec's is filled by no fold, so its first call is DSP.
		needsDa, needsFault, needsVec, plants bool
		call                                  func(t *testing.T, ls *LiveState, rec *store.Record)
	}{
		{name: "Fold", plants: true, call: func(t *testing.T, ls *LiveState, rec *store.Record) {
			ls.Fold(rec)
		}},
		{name: "Ensure", plants: true, call: func(t *testing.T, ls *LiveState, rec *store.Record) {
			f := ls.ensure(rec.PumpID, []*store.Record{rec}, 0)[0]
			if f.Offsets != transform.Offsets(rec) || !eqF64(f.RMS, transform.RMS(rec)) {
				t.Error("Ensure: scalars diverged from the transforms")
			}
		}},
		{name: "Da", needsDa: true, call: func(t *testing.T, ls *LiveState, rec *store.Record) {
			want, wantErr := base.Da(rec)
			got, err := ls.Da(rec)
			if !eqF64(got, want) || (err == nil) != (wantErr == nil) {
				t.Errorf("Da = (%g, %v), want (%g, %v)", got, err, want, wantErr)
			}
		}},
		{name: "DaSeries", needsDa: true, call: func(t *testing.T, ls *LiveState, rec *store.Record) {
			want, _ := base.Da(rec)
			days, das, _ := ls.DaSeries([]*store.Record{rec}, []int{0})
			if len(das) != 1 || !eqF64(das[0], want) || days[0] != rec.ServiceDays {
				t.Errorf("DaSeries = (%v, %v), want one point (%g, %g)", days, das, rec.ServiceDays, want)
			}
		}},
		{name: "VectorScores", needsVec: true, call: func(t *testing.T, ls *LiveState, rec *store.Record) {
			wantEuc, _ := base.Score(feature.MetricEuclidean, rec, nil)
			wantMah, _ := base.Score(feature.MetricMahalanobis, rec, nil)
			euc, mah, err := ls.VectorScores(rec)
			if err != nil || !eqF64(euc, wantEuc) || !eqF64(mah, wantMah) {
				t.Errorf("VectorScores = (%g, %g, %v), want (%g, %g)", euc, mah, err, wantEuc, wantMah)
			}
		}},
		{name: "Harmonics", call: func(t *testing.T, ls *LiveState, rec *store.Record) {
			got := ls.Harmonics([]*store.Record{rec}, nil, nil)
			if !reflect.DeepEqual(got[0], feature.HarmonicOfRecord(rec, opt)) {
				t.Error("Harmonics diverged from HarmonicOfRecord")
			}
		}},
		{name: "FaultReport", needsFault: true, plants: true, call: func(t *testing.T, ls *LiveState, rec *store.Record) {
			if got := ls.FaultReport(rec); !reflect.DeepEqual(got, det.Detect(rec)) {
				t.Error("FaultReport diverged from Detect")
			}
		}},
		{name: "MetricFunc", plants: true, call: func(t *testing.T, ls *LiveState, rec *store.Record) {
			vrms, _ := ls.MetricFunc("vrms")
			if got := vrms(rec); !eqF64(got, transform.VelocityRMS(rec, transform.ISOBandLoHz, transform.ISOBandHiHz)) {
				t.Errorf("vrms = %g", got)
			}
		}},
	}

	for _, st := range states {
		for _, en := range entries {
			t.Run(st.name+"/"+en.name, func(t *testing.T) {
				ls := NewLiveState(Config{Harmonic: opt})
				rec := mkRec(6, 42, 256)
				if !st.lateBase {
					ls.SetBaseline(base)
				}
				if !st.lateDetects {
					ls.SetFaultDetector(det)
				}
				if st.folded {
					ls.Fold(rec)
				}
				ls.SetBaseline(base)
				ls.SetFaultDetector(det)

				before := readCounters()
				en.call(t, ls, rec)
				got := readCounters().since(before)

				ranDSP := !st.folded || en.needsVec || (en.needsDa && st.lateBase) || (en.needsFault && st.lateDetects)
				want := counters{hits: 1}
				if ranDSP {
					want = counters{misses: 1}
				}
				if !st.folded && en.plants {
					want.folds = 1
				}
				if got != want {
					t.Errorf("counters moved %+v, want %+v", got, want)
				}

				// Asking again is a hit and never a second fold — except
				// for the entry points that may not plant the record.
				before = readCounters()
				en.call(t, ls, rec)
				again := counters{hits: 1}
				if !st.folded && !en.plants {
					again = counters{misses: 1}
				}
				if got := readCounters().since(before); got != again {
					t.Errorf("second call moved %+v, want %+v", got, again)
				}
			})
		}
	}
}

// TestMissFoldsOnce pins the miss path: a lookup of a never-folded
// record runs the fold and nothing after it. One FaultReport is one
// Detect (the parent ran the fold's and then its own); the Da of a
// folded record is a hit, scored by the fold from the baseline's
// harmonic variant of its one PSD.
func TestMissFoldsOnce(t *testing.T) {
	base := trainBaseline(t, feature.Options{})
	det := feature.NewFaultDetector(feature.MachineSpec{})
	ls := NewLiveState(Config{})
	ls.SetBaseline(base)
	ls.SetFaultDetector(det)

	rec := mkRec(7, 1, 256)
	want := det.Detect(rec)
	d0, c0 := detects.Count(), readCounters()
	if got := ls.FaultReport(rec); !reflect.DeepEqual(got, want) {
		t.Fatalf("FaultReport diverged:\ngot:  %+v\nwant: %+v", got, want)
	}
	if d := detects.Count() - d0; d != 1 {
		t.Errorf("one FaultReport on an unfolded record ran Detect %d times, want 1", d)
	}
	if got := readCounters().since(c0); got != (counters{folds: 1, misses: 1}) {
		t.Errorf("counters moved %+v, want one fold and one miss", got)
	}

	rec = mkRec(7, 2, 256)
	wantDa, _ := base.Da(rec)
	ls.Fold(rec)
	c0 = readCounters()
	if got, _ := ls.Da(rec); !eqF64(got, wantDa) {
		t.Fatalf("Da = %g, want %g", got, wantDa)
	}
	if got := readCounters().since(c0); got != (counters{hits: 1}) {
		t.Errorf("counters moved %+v, want one hit", got)
	}
	f := ls.feat(rec)
	f.mu.Lock()
	daFor, da, harm := f.daFor, f.da, f.harm
	f.mu.Unlock()
	if daFor != base || !eqF64(da.val, wantDa) {
		t.Errorf("after Da: the bundle holds %g for baseline %p; the fold should have left %g for %p", da.val, daFor, wantDa, base)
	}
	if !reflect.DeepEqual(harm, feature.HarmonicOfRecord(rec, feature.Options{})) {
		t.Error("after Da: the fold left no raw-option harmonic, or a wrong one")
	}
}

// TestHarmonicsLeavesUnfoldedRecordsOut pins one stated exception:
// the fit's corpus scan may meet cold-tier records that are not in the
// hot store, and must not plant them in the memo.
func TestHarmonicsLeavesUnfoldedRecordsOut(t *testing.T) {
	ls := NewLiveState(Config{})
	resident, cold := mkRec(2, 1, 256), mkRec(2, 2, 256)
	ls.Fold(resident)
	before := readCounters()
	got := ls.Harmonics([]*store.Record{resident, cold}, nil, nil)
	for i, rec := range []*store.Record{resident, cold} {
		if !reflect.DeepEqual(got[i], feature.HarmonicOfRecord(rec, feature.Options{})) {
			t.Fatalf("record %d: harmonic diverged", i)
		}
	}
	if d := readCounters().since(before); d != (counters{hits: 1, misses: 1}) {
		t.Errorf("counters moved %+v, want one hit and one miss", d)
	}
	if ls.Size() != 1 || pumpCacheLen(ls, 2) != 1 {
		t.Fatalf("Harmonics planted an unfolded record: size %d, pump memo %d", ls.Size(), pumpCacheLen(ls, 2))
	}
}

// TestMemoHarmonicsHoldOnlyWhatTheyKeep: the harmonic the memo keeps
// for the life of a record owns an array of exactly its peaks, not the
// one FindPeaksInto grew to every local maximum of the spectrum. The
// baseline's variant scores D_a during the fold and is not kept.
func TestMemoHarmonicsHoldOnlyWhatTheyKeep(t *testing.T) {
	base := trainBaseline(t, feature.Options{})
	ls := NewLiveState(Config{})
	ls.SetBaseline(base)
	rec := simRec(t, 1, 90, 1024)
	if h := feature.HarmonicOfRecord(rec, feature.Options{}); cap(h.Peaks) == len(h.Peaks) {
		t.Fatalf("fixture: the extraction kept all %d local maxima it found; want a truncated one", cap(h.Peaks))
	}
	f := ls.feat(rec)
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.daFor != base {
		t.Fatal("the fold did not score D_a against the installed baseline")
	}
	if len(f.harm.Peaks) == 0 || cap(f.harm.Peaks) != len(f.harm.Peaks) {
		t.Errorf("%d peaks in an array of %d", len(f.harm.Peaks), cap(f.harm.Peaks))
	}
}

// kept is what a bundle holds for the fit, copied out so a test can
// tell whether a query touched it.
type kept struct {
	harm     feature.Harmonic
	daFor    *feature.Baseline
	da       daScore
	faultFor *feature.FaultDetector
	fault    feature.FaultReport
}

func keptBy(ls *LiveState, rec *store.Record) kept {
	ps := ls.pump(rec.PumpID)
	ps.mu.Lock()
	f := ps.feats[rec]
	ps.mu.Unlock()
	f.mu.Lock()
	defer f.mu.Unlock()
	return kept{f.harm, f.daFor, f.da, f.faultFor, f.fault}
}

// TestMemoAnswersForTheInstalledFit: a bundle keeps one harmonic, one
// D_a and one fault report — for the configured options, the installed
// baseline and the installed detector, the only fit the reads can ask
// about. Installing a new baseline or detector re-scores each record
// once, in place (a miss: DSP ran), and every later query is a hit.
func TestMemoAnswersForTheInstalledFit(t *testing.T) {
	opt := feature.Options{}
	base1, base2 := trainBaseline(t, opt), trainBaseline(t, feature.Options{HannWindow: 8})
	det1 := feature.NewFaultDetector(feature.MachineSpec{})
	det2 := det1.WithSpec(1, feature.MachineSpec{RotorHz: 17})

	ls := NewLiveState(Config{Harmonic: opt})
	ls.SetBaseline(base1)
	ls.SetFaultDetector(det1)
	resident := []*store.Record{mkRec(1, 1, 256), mkRec(1, 2, 256), mkRec(1, 3, 512)}
	for _, rec := range resident {
		ls.Fold(rec)
	}
	da1, _ := base1.Da(resident[0])
	da2, _ := base2.Da(resident[0])
	if eqF64(da1, da2) || reflect.DeepEqual(det1.Detect(resident[0]), det2.Detect(resident[0])) {
		t.Fatal("fixture: the two fits must score and classify differently")
	}

	ls.SetBaseline(base2)
	ls.SetFaultDetector(det2)
	for i, rec := range resident {
		wantDa, _ := base2.Da(rec)
		wantRep := det2.Detect(rec)
		for round, want := range []counters{{misses: 1}, {hits: 1}} {
			c0 := readCounters()
			if got, _ := ls.Da(rec); !eqF64(got, wantDa) {
				t.Errorf("record %d round %d: Da = %g, want %g", i, round, got, wantDa)
			}
			if got := readCounters().since(c0); got != want {
				t.Errorf("record %d round %d: Da moved %+v, want %+v", i, round, got, want)
			}
			c0 = readCounters()
			if got := ls.FaultReport(rec); !reflect.DeepEqual(got, wantRep) {
				t.Errorf("record %d round %d: FaultReport diverged from Detect", i, round)
			}
			if got := readCounters().since(c0); got != want {
				t.Errorf("record %d round %d: FaultReport moved %+v, want %+v", i, round, got, want)
			}
		}
		if k := keptBy(ls, rec); k.daFor != base2 || k.faultFor != det2 {
			t.Errorf("record %d: the bundle was not re-tagged for the installed fit", i)
		}
	}
	c0 := readCounters()
	ls.Harmonics(resident, nil, nil)
	if got := readCounters().since(c0); got != (counters{hits: uint64(len(resident))}) {
		t.Errorf("Harmonics with the configured options moved %+v, want %d hits", got, len(resident))
	}
}

// TestStaleDaRescoresFromTheKeptHarmonic: a record folded before the
// baseline was installed — the fit's scan folds the labelled records,
// then trains — is scored on first ask from the harmonic its bundle
// keeps, with no spectrum, where the baseline's Hz-pinned options
// resolve to the configured ones at its resolution. At a rate where the
// pin resolves to another Hann window the kept harmonic is not the one
// base.Da extracts, and the rescore takes one fresh spectrum. Either
// way the score is base.Da's bitwise, the call is one miss and the
// score is kept.
func TestStaleDaRescoresFromTheKeptHarmonic(t *testing.T) {
	opt := feature.Options{}
	base := trainBaseline(t, opt)
	ls := NewLiveState(Config{Harmonic: opt})
	slower := mkRec(5, 2, 256)
	slower.SampleRateHz = 2000
	cases := []struct {
		name string
		rec  *store.Record
		psds uint64
	}{
		{"training rate", mkRec(5, 1, 256), 0},
		{"half the rate", slower, 1},
	}
	for _, tc := range cases {
		ls.Fold(tc.rec)
	}
	ls.SetBaseline(base)
	psds := obs.Default.Counter("vibepm_transform_psd_total")
	for _, tc := range cases {
		want, wantErr := base.Da(tc.rec)
		kept, _ := base.DaFromHarmonic(feature.HarmonicOfRecord(tc.rec, opt))
		if shared := eqF64(kept, want); shared != (tc.psds == 0) {
			t.Fatalf("%s: fixture: the raw harmonic scores %g, base.Da %g; want them equal only at the training rate", tc.name, kept, want)
		}
		p0, c0 := psds.Value(), readCounters()
		got, err := ls.Da(tc.rec)
		if math.Float64bits(got) != math.Float64bits(want) || (err == nil) != (wantErr == nil) {
			t.Errorf("%s: Da = (%g, %v), want (%g, %v)", tc.name, got, err, want, wantErr)
		}
		if d := psds.Value() - p0; d != tc.psds {
			t.Errorf("%s: the rescore computed %d spectra, want %d", tc.name, d, tc.psds)
		}
		if d := readCounters().since(c0); d != (counters{misses: 1}) {
			t.Errorf("%s: the rescore moved %+v, want one miss", tc.name, d)
		}
		if k := keptBy(ls, tc.rec); k.daFor != base || math.Float64bits(k.da.val) != math.Float64bits(want) {
			t.Errorf("%s: the bundle kept %g for %p, want %g for %p", tc.name, k.da.val, k.daFor, want, base)
		}
	}
}

// TestVectorScoresAreTheBaselines: the memo's Euclidean and Mahalanobis
// scores are Baseline.Score's, bit for bit, in every state a record can
// be asked in. A resident record's first ask takes one spectrum for
// both (a miss) and keeps them; the next is a hit with no spectrum. A
// re-installed baseline rescores the record once, in place. A record
// no store holds is scored and not planted. A record whose spectrum is
// not the baseline's length gets Score's error, with no spectrum and no
// lookup.
func TestVectorScoresAreTheBaselines(t *testing.T) {
	base1 := trainBaseline(t, feature.Options{})
	// A second Zone A set: the vector metrics read the PSD statistics.
	base2, err := feature.TrainBaseline([]*store.Record{mkRec(0, 20, 256), mkRec(0, 23, 256)}, feature.Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	psds := obs.Default.Counter("vibepm_transform_psd_total")
	ls := NewLiveState(Config{})
	ls.SetBaseline(base1)
	resident, loose, long := mkRec(3, 1, 256), mkRec(3, 2, 256), mkRec(3, 3, 512)
	ls.Fold(resident)
	ls.Fold(long)

	ask := func(name string, base *feature.Baseline, rec *store.Record, wantSpectra uint64, wantCounters counters) {
		t.Helper()
		wantEuc, errEuc := base.Score(feature.MetricEuclidean, rec, nil)
		wantMah, errMah := base.Score(feature.MetricMahalanobis, rec, nil)
		p0, c0 := psds.Value(), readCounters()
		euc, mah, err := ls.VectorScores(rec)
		if d := psds.Value() - p0; d != wantSpectra {
			t.Errorf("%s: %d spectra, want %d", name, d, wantSpectra)
		}
		if d := readCounters().since(c0); d != wantCounters {
			t.Errorf("%s: counters moved %+v, want %+v", name, d, wantCounters)
		}
		if err != errEuc || err != errMah {
			t.Errorf("%s: err %v, Score's (%v, %v)", name, err, errEuc, errMah)
		}
		if math.Float64bits(euc) != math.Float64bits(wantEuc) || math.Float64bits(mah) != math.Float64bits(wantMah) {
			t.Errorf("%s: (%v, %v), Score's (%v, %v)", name, euc, mah, wantEuc, wantMah)
		}
	}
	ask("resident, first ask", base1, resident, 1, counters{misses: 1})
	ask("resident, second ask", base1, resident, 0, counters{hits: 1})

	ls.SetBaseline(base2)
	e1, _ := base1.Score(feature.MetricEuclidean, resident, nil)
	if e2, _ := base2.Score(feature.MetricEuclidean, resident, nil); eqF64(e1, e2) {
		t.Fatal("fixture: the two baselines must score the record differently")
	}
	ask("re-installed baseline", base2, resident, 1, counters{misses: 1})
	ask("re-installed baseline, again", base2, resident, 0, counters{hits: 1})

	size := ls.Size()
	ask("not resident", base2, loose, 1, counters{misses: 1})
	if ls.Size() != size {
		t.Errorf("a record no store holds was planted: size %d -> %d", size, ls.Size())
	}

	ask("length mismatch", base2, long, 0, counters{})
	if _, _, err := ls.VectorScores(long); !errors.Is(err, feature.ErrPSDLength) {
		t.Errorf("length mismatch: err %v, want ErrPSDLength", err)
	}
}

// TestScanKeepsTheTrainedVectorScores: a Harmonics scan handed the
// baseline being trained keeps each hot record's vector scores from the
// spectrum its fold takes, tagged with that baseline; once it is
// installed — after SetNormalizers, which the scores do not read —
// VectorScores of those records is a hit with no spectrum, and the
// scores are Score's bit for bit. A record the scan did not fold (one
// already resident, or one not hot) keeps none, and its first ask
// takes its spectrum.
func TestScanKeepsTheTrainedVectorScores(t *testing.T) {
	opt := feature.Options{}
	base := trainBaseline(t, opt)
	ls := NewLiveState(Config{Harmonic: opt})
	folded, cold := mkRec(5, 1, 256), mkRec(5, 2, 256)
	scanned := []*store.Record{mkRec(5, 3, 256), mkRec(5, 4, 256), folded, cold}
	ls.Fold(folded)

	psds := obs.Default.Counter("vibepm_transform_psd_total")
	p0 := psds.Value()
	hs := ls.Harmonics(scanned, []bool{true, true, true, false}, base)
	if d := psds.Value() - p0; d != 3 {
		t.Errorf("the scan computed %d spectra, want 3 (two folds, one cold extraction)", d)
	}
	base.SetNormalizers(hs...)
	ls.SetBaseline(base)

	for i, rec := range scanned {
		wantEuc, _ := base.Score(feature.MetricEuclidean, rec, nil)
		wantMah, _ := base.Score(feature.MetricMahalanobis, rec, nil)
		wantSpectra := uint64(0)
		if rec == folded || rec == cold {
			wantSpectra = 1
		}
		p0, c0 := psds.Value(), readCounters()
		euc, mah, err := ls.VectorScores(rec)
		if d := psds.Value() - p0; d != wantSpectra {
			t.Errorf("record %d: VectorScores computed %d spectra, want %d", i, d, wantSpectra)
		}
		if wantSpectra == 0 && readCounters().since(c0) != (counters{hits: 1}) {
			t.Errorf("record %d: VectorScores moved %+v, want one hit", i, readCounters().since(c0))
		}
		if err != nil || !eqF64(euc, wantEuc) || !eqF64(mah, wantMah) {
			t.Errorf("record %d: VectorScores (%v, %v, %v), Score's (%v, %v)", i, euc, mah, err, wantEuc, wantMah)
		}
	}
}

// TestFitScanIsTrainingThenScan: FitScan's baseline is TrainBaseline's
// over the Zone A records and its harmonics are what Harmonics returns
// against it, bit for bit, and each hot record's bundle — a Zone A
// one folded from its training spectrum — holds what the scan's fold
// keeps. It takes one spectrum per record, where training and then
// scanning take one more per Zone A record.
func TestFitScanIsTrainingThenScan(t *testing.T) {
	opt := feature.Options{}
	var recs []*store.Record
	for i := 0; i < 6; i++ {
		recs = append(recs, mkRec(6, float64(i), 256))
	}
	hot := []bool{true, false, true, true, false, true}
	zoneA := []bool{true, true, false, true, false, false}
	var healthy []*store.Record
	for i, a := range zoneA {
		if a {
			healthy = append(healthy, recs[i])
		}
	}
	psds := obs.Default.Counter("vibepm_transform_psd_total")
	p0 := psds.Value()
	want, err := feature.TrainBaseline(healthy, opt, nil)
	if err != nil {
		t.Fatal(err)
	}
	ref := NewLiveState(Config{Harmonic: opt})
	wantH := ref.Harmonics(recs, hot, want)
	if d := psds.Value() - p0; d != uint64(len(recs)+len(healthy)) {
		t.Fatalf("training then scanning computed %d spectra, want %d", d, len(recs)+len(healthy))
	}

	ls := NewLiveState(Config{Harmonic: opt})
	p0 = psds.Value()
	got, gotH, err := ls.FitScan(recs, hot, zoneA)
	if err != nil {
		t.Fatal(err)
	}
	if d := psds.Value() - p0; d != uint64(len(recs)) {
		t.Errorf("FitScan computed %d spectra, want one per record: %d", d, len(recs))
	}
	if !reflect.DeepEqual(*got, *want) {
		t.Errorf("FitScan's baseline %+v, TrainBaseline's %+v", *got, *want)
	}
	if !reflect.DeepEqual(gotH, wantH) {
		t.Errorf("FitScan's harmonics %+v, Harmonics' %+v", gotH, wantH)
	}
	if ls.Size() != ref.Size() {
		t.Errorf("FitScan planted %d bundles, the scan %d", ls.Size(), ref.Size())
	}
	for i, rec := range recs {
		g, w := ls.pump(rec.PumpID).feats[rec], ref.pump(rec.PumpID).feats[rec]
		if (g == nil) != (w == nil) {
			t.Fatalf("record %d: planted %v, the scan's %v", i, g != nil, w != nil)
		}
		if g == nil {
			continue
		}
		if g.Offsets != w.Offsets || g.RMS != w.RMS || g.VRMS != w.VRMS || !reflect.DeepEqual(g.harm, w.harm) ||
			g.euc != w.euc || g.mah != w.mah || g.vecFor != got || w.vecFor != want || g.daFor != nil {
			t.Errorf("record %d: FitScan's bundle differs from the scan's", i)
		}
	}
}

// TestMissDoesNotBlockOtherRecords: while one record of a pump is
// mid-miss — its lookup parked inside the lazy fill, where a slow
// detector would hold it — every entry point still answers for another
// record of the same pump, and a second lookup of the parked record
// waits for the first instead of repeating it.
func TestMissDoesNotBlockOtherRecords(t *testing.T) {
	det := feature.NewFaultDetector(feature.MachineSpec{})
	ls := NewLiveState(Config{})
	ls.SetFaultDetector(det)
	slow, other := mkRec(9, 1, 256), mkRec(9, 2, 256)
	ls.Fold(other)

	filling := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		ls.lookup(slow, true, nil, nil, func(*feat, bool) bool {
			close(filling)
			<-release
			return true
		})
	}()
	<-filling

	served := make(chan struct{})
	go func() {
		defer close(served)
		ls.FaultReport(other)
		ls.ensure(9, []*store.Record{other}, 0)
		ls.Fold(mkRec(9, 3, 256))
	}()
	select {
	case <-served:
	case <-time.After(10 * time.Second):
		t.Error("lookups of another record stalled behind a miss in flight")
	}

	waited := make(chan counters, 1)
	go func() {
		before := readCounters()
		ls.Fold(slow)
		waited <- readCounters().since(before)
	}()
	select {
	case <-waited:
		t.Fatal("a second lookup of the record mid-miss did not wait for the first")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-done
	if got := <-waited; got.folds != 0 || got.hits != 1 {
		t.Errorf("the waiting lookup moved %+v, want a hit and no fold", got)
	}
}
