package vibepm

import (
	"math"
	"reflect"
	"testing"

	"vibepm/internal/obs"
)

// liveLookups reads the live memo's hit and miss counters.
func liveLookups() (hits, misses uint64) {
	return obs.Default.Counter("vibepm_stream_cache_hits_total").Value(),
		obs.Default.Counter("vibepm_stream_cache_misses_total").Value()
}

// warmedLiveEngine is a fitted engine whose live state has folded every
// stored record under the fitted baseline.
func warmedLiveEngine(t *testing.T, seed int64) *Engine {
	t.Helper()
	eng, _ := fitEngine(t, seed)
	if n := eng.WarmLive(); n != eng.Measurements().Len() {
		t.Fatalf("warmed %d of %d records", n, eng.Measurements().Len())
	}
	return eng
}

// TestWarmedTrendRebuildIsAllHits: the hit ratio sees the main read
// path. A trend rebuild over a warmed pump looks every record up for
// its offsets and every surviving record for its D_a, runs no DSP, and
// each of those lookups is counted as a hit.
func TestWarmedTrendRebuildIsAllHits(t *testing.T) {
	eng := warmedLiveEngine(t, 33)
	const pump = 0
	n := len(eng.Measurements().All(pump))
	h0, m0 := liveLookups()
	trend, err := eng.CleanTrend(pump, func(_ int, d float64) float64 { return d })
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := liveLookups()
	if dm := m1 - m0; dm != 0 {
		t.Errorf("rebuild over a warmed pump missed %d times", dm)
	}
	if dh, want := h1-h0, uint64(n+len(trend)); dh < want {
		t.Errorf("rebuild counted %d hits, want >= %d (%d records + %d scored)", dh, want, n, len(trend))
	}
}

// TestReportScoresOnce: Report and AnalyzeDegraded score D_a once per
// pump and read the zone off that score; the report is what Classify
// and Da say separately.
func TestReportScoresOnce(t *testing.T) {
	eng := warmedLiveEngine(t, 34)
	lookups := func() uint64 { h, m := liveLookups(); return h + m }

	before := lookups()
	rep, err := eng.Report(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := lookups() - before; d != 1 {
		t.Errorf("Report looked the record up %d times, want 1", d)
	}
	rec := eng.Measurements().Latest(0)
	zone, probs, err := eng.Classify(rec)
	if err != nil {
		t.Fatal(err)
	}
	da, _ := eng.Da(rec)
	if rep.Da != da || rep.Zone != zone || !reflect.DeepEqual(rep.Probabilities, probs) {
		t.Errorf("report (%g, %v, %v) diverged from Da/Classify (%g, %v, %v)", rep.Da, rep.Zone, rep.Probabilities, da, zone, probs)
	}

	before = lookups()
	deg, err := eng.AnalyzeDegraded(DegradedConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if d := lookups() - before; deg.Analyzed == 0 || d != uint64(deg.Analyzed) {
		t.Errorf("AnalyzeDegraded made %d lookups for %d analyzed pumps", d, deg.Analyzed)
	}
}

// psdCount reads how many record spectra the process has computed.
func psdCount() uint64 { return obs.Default.Counter("vibepm_transform_psd_total").Value() }

// TestFitTransformsEachLabelledRecordOnce: the fit's scan is the one
// spectrum of each hot labelled record. It plants the fold and, once
// the baseline is trained, scores the record from the harmonic it kept,
// so every later reader of the peak-harmonic feature — D_a over the
// labelled corpus (Fig. 11), the metric sweep's peak-harmonic column —
// is a memo hit and computes no spectrum. The values are the pure
// function's.
func TestFitTransformsEachLabelledRecordOnce(t *testing.T) {
	eng, ds := fitEngine(t, 35)
	base, _ := eng.Baseline()
	labelled := ds.ValidLabelled()
	got := make([]float64, len(labelled))
	errs := make([]error, len(labelled))
	p0 := psdCount()
	_, m0 := liveLookups()
	for i, lr := range labelled {
		got[i], errs[i] = eng.Da(lr.Record)
	}
	if _, err := eng.EvaluateMetric(MetricPeakHarmonic, 15, nil, 7); err != nil {
		t.Fatal(err)
	}
	_, m1 := liveLookups()
	if d := psdCount() - p0; d != 0 {
		t.Errorf("D_a over %d labelled records and the peak-harmonic sweep computed %d spectra after Fit, want 0", len(labelled), d)
	}
	if dm := m1 - m0; dm != 0 {
		t.Errorf("they missed the memo %d times, want all hits", dm)
	}
	for i, lr := range labelled {
		want, wantErr := base.Da(lr.Record)
		if math.Float64bits(got[i]) != math.Float64bits(want) || (errs[i] == nil) != (wantErr == nil) {
			t.Fatalf("labelled record %d: Da (%v, %v), baseline.Da (%v, %v)", i, got[i], errs[i], want, wantErr)
		}
	}
}

// TestFitTakesOneSpectrumPerRecordItReads: a fit computes one spectrum
// per labelled record it reads, and no more: the scan folds each hot
// labelled record once, and a Zone A record's fold reuses the spectrum
// the baseline's PSD statistics were summed from.
func TestFitTakesOneSpectrumPerRecordItReads(t *testing.T) {
	eng, ds := fitEngine(t, 37)
	read := map[*Record]bool{}
	var zoneA int
	for _, p := range eng.labelledPairs() {
		if !p.hot {
			t.Fatalf("pair at %.1f days is cold: the count below assumes every labelled record is hot", p.rec.ServiceDays)
		}
		read[p.rec] = true
		if p.zone == ZoneA {
			zoneA++
		}
	}
	if zoneA == 0 {
		t.Fatal("no Zone A pair: the fit trains no baseline")
	}
	fresh := NewWithStores(Options{}, ds.Measurements, ds.Labels)
	p0 := psdCount()
	if err := fresh.Fit(); err != nil {
		t.Fatal(err)
	}
	if d := psdCount() - p0; d != uint64(len(read)) {
		t.Errorf("Fit computed %d spectra, want one per labelled record read: %d (%d of them Zone A)", d, len(read), zoneA)
	}
}

// TestSweepTransformsEachLabelledRecordOnce: the fit's scan keeps the
// Euclidean and Mahalanobis scores of every hot labelled record from
// the spectrum it folds, so the Fig. 12–14 sweep and Table III, which
// ask the same four metrics again, compute no spectrum and every
// memo lookup is a hit. The scores are Baseline.Score's, bit for bit.
func TestSweepTransformsEachLabelledRecordOnce(t *testing.T) {
	eng, ds := fitEngine(t, 36)
	base, _ := eng.Baseline()
	temp := tempSource{ds: ds}
	hot := map[*Record]bool{}
	for _, p := range eng.labelledPairs() {
		if p.hot {
			hot[p.rec] = true
		}
	}
	metrics := []Metric{MetricPeakHarmonic, MetricEuclidean, MetricMahalanobis, MetricTemperature}
	p0 := psdCount()
	_, m0 := liveLookups()
	for _, m := range metrics {
		if _, err := eng.EvaluateMetricSweep(m, []int{5, 15, 25}, temp, 7); err != nil {
			t.Fatal(err)
		}
	}
	if d := psdCount() - p0; d != 0 {
		t.Errorf("the four-metric sweep computed %d spectra for %d hot labelled records, want 0", d, len(hot))
	}
	if _, m1 := liveLookups(); m1 != m0 {
		t.Errorf("the four-metric sweep missed the memo %d times, want all hits", m1-m0)
	}
	p0 = psdCount()
	for _, m := range metrics {
		if _, err := eng.EvaluateMetric(m, 15, temp, 22); err != nil {
			t.Fatal(err)
		}
	}
	if d := psdCount() - p0; d != 0 {
		t.Errorf("Table III's four metrics computed %d spectra after the sweep, want 0", d)
	}
	for rec := range hot {
		euc, mah, err := eng.Live().VectorScores(rec)
		wantEuc, errEuc := base.Score(MetricEuclidean, rec, nil)
		wantMah, errMah := base.Score(MetricMahalanobis, rec, nil)
		if err != errEuc || err != errMah || math.Float64bits(euc) != math.Float64bits(wantEuc) || math.Float64bits(mah) != math.Float64bits(wantMah) {
			t.Fatalf("record (pump %d, day %g): memo (%v, %v, %v), Score (%v, %v, %v / %v)",
				rec.PumpID, rec.ServiceDays, euc, mah, err, wantEuc, wantMah, errEuc, errMah)
		}
	}
}
