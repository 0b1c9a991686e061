package experiments

import (
	"math"
	"strings"
	"sync"
	"testing"

	"vibepm/internal/core"
	"vibepm/internal/feature"
	"vibepm/internal/physics"
)

// The small corpus is expensive enough to share across tests.
var (
	corpusOnce sync.Once
	corpus     *Corpus
	corpusErr  error
)

func smallCorpus(t *testing.T) *Corpus {
	t.Helper()
	corpusOnce.Do(func() {
		corpus, corpusErr = NewCorpus(Small, 1)
	})
	if corpusErr != nil {
		t.Fatal(corpusErr)
	}
	return corpus
}

func TestScaleString(t *testing.T) {
	if Small.String() != "small" || Medium.String() != "medium" || Paper.String() != "paper" {
		t.Fatal("scale strings")
	}
	if Scale(9).String() == "" {
		t.Fatal("unknown scale string")
	}
}

func TestTable1(t *testing.T) {
	r, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows %d", len(r.Rows))
	}
	piezo, mems := r.Rows[0], r.Rows[1]
	// Shape: the MEMS noise floor exceeds the piezo one, roughly in
	// proportion to the datasheet figures.
	if mems.MeasuredNoiseG <= piezo.MeasuredNoiseG {
		t.Fatalf("noise floors: piezo %.6f, MEMS %.6f", piezo.MeasuredNoiseG, mems.MeasuredNoiseG)
	}
	// Measured ≈ spec (within 2×: quantization adds a little).
	if mems.MeasuredNoiseG < mems.Spec.NoiseRMSMicroG*1e-6/2 || mems.MeasuredNoiseG > mems.Spec.NoiseRMSMicroG*1e-6*2 {
		t.Fatalf("MEMS measured noise %.6f g vs spec %.0f ug", mems.MeasuredNoiseG, mems.Spec.NoiseRMSMicroG)
	}
	if !strings.Contains(r.String(), "MEMS") {
		t.Fatal("render missing MEMS column")
	}
}

func TestFig5(t *testing.T) {
	r, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Curves) != 4 {
		t.Fatalf("curves %d", len(r.Curves))
	}
	// Paper anchors.
	if math.Abs(r.Anchor150Hz3y-10.2) > 0.4 || math.Abs(r.Anchor150Hz2y-5.2) > 0.3 {
		t.Fatalf("anchors %.2f %.2f", r.Anchor150Hz3y, r.Anchor150Hz2y)
	}
	// Monotone ordering across target lifetimes at every frequency.
	for i := range r.Curves[0].Points {
		for c := 1; c < len(r.Curves); c++ {
			lo := r.Curves[c-1].Points[i].PeriodHours
			hi := r.Curves[c].Points[i].PeriodHours
			if !math.IsInf(hi, 1) && hi < lo {
				t.Fatalf("curve ordering violated at fs=%.0f", r.Curves[c].Points[i].SamplingHz)
			}
		}
	}
	if !strings.Contains(r.String(), "anchors at 150 Hz") {
		t.Fatal("render missing anchors")
	}
}

func TestFig8(t *testing.T) {
	r, err := Fig8(7)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Stable.InvalidIdx) != 0 {
		t.Fatalf("stable sensor flagged %d invalid", len(r.Stable.InvalidIdx))
	}
	if len(r.Unstable.InvalidIdx) == 0 {
		t.Fatal("unstable sensor flagged nothing")
	}
	if len(r.Stable.Days) != len(r.Stable.Offsets) {
		t.Fatal("trace lengths disagree")
	}
	if !strings.Contains(r.String(), "unstable") {
		t.Fatal("render missing unstable row")
	}
}

func TestFig9(t *testing.T) {
	c := smallCorpus(t)
	r, err := Fig9(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Samples) != 3 {
		t.Fatalf("samples %d", len(r.Samples))
	}
	// Shape: the Zone D sample's distance exceeds both BC samples'.
	d := r.Samples[2].Da
	if d <= r.Samples[0].Da || d <= r.Samples[1].Da {
		t.Fatalf("Zone D distance %.3f not maximal (%.3f, %.3f)", d, r.Samples[0].Da, r.Samples[1].Da)
	}
	if r.BaselinePeaks == 0 {
		t.Fatal("baseline has no peaks")
	}
}

func TestFig10(t *testing.T) {
	c := smallCorpus(t)
	r, err := Fig10(c, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Zones) != 3 {
		t.Fatalf("zones %d", len(r.Zones))
	}
	var a, bc, d Fig10Zone
	for _, z := range r.Zones {
		switch z.Zone {
		case physics.MergedA:
			a = z
		case physics.MergedBC:
			bc = z
		case physics.MergedD:
			d = z
		}
	}
	// Shape: amplitude and fluctuation grow from A to D (the paper:
	// "overall amplitude, shape and peak location ... all different
	// from zone to zone" and variance grows toward D).
	if !(a.MeanAmplitude < bc.MeanAmplitude && bc.MeanAmplitude < d.MeanAmplitude) {
		t.Fatalf("amplitude ordering: %.4g %.4g %.4g", a.MeanAmplitude, bc.MeanAmplitude, d.MeanAmplitude)
	}
	if !(a.Fluctuation < d.Fluctuation) {
		t.Fatalf("fluctuation ordering: %.3f %.3f", a.Fluctuation, d.Fluctuation)
	}
	if !(a.HighFreqShare < d.HighFreqShare) {
		t.Fatalf("HF share ordering: %.3f %.3f", a.HighFreqShare, d.HighFreqShare)
	}
}

// TestFig11ReadsTheFit: Fig. 11's boundary is the engine's own, bit for
// bit, and the densities the fit estimated are the ones a refit over
// every valid labelled D_a would give — the same sample counts and the
// same boundary — at small and medium scale. So Fig11 reads them and
// refits nothing.
func TestFig11ReadsTheFit(t *testing.T) {
	scales := []Scale{Small, Medium}
	if testing.Short() {
		scales = scales[:1]
	}
	for _, scale := range scales {
		c := smallCorpus(t)
		if scale != Small {
			var err error
			if c, err = NewCorpus(scale, 1); err != nil {
				t.Fatal(err)
			}
		}
		r, err := Fig11(c)
		if err != nil {
			t.Fatal(err)
		}
		b, err := c.Engine.Boundary()
		if err != nil {
			t.Fatal(err)
		}
		var samples []core.Sample
		for _, lr := range c.Dataset.ValidLabelled() {
			if da, err := c.Engine.Da(lr.Record); err == nil {
				samples = append(samples, core.Sample{Score: da, Zone: lr.Zone})
			}
		}
		refit, err := core.FitDensities(samples)
		if err != nil {
			t.Fatal(err)
		}
		want, err := refit.BoundaryBCD()
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(r.Boundary) != math.Float64bits(b) || math.Float64bits(b) != math.Float64bits(want) {
			t.Fatalf("%v: Fig. 11 boundary %v, engine %v, refit %v", scale, r.Boundary, b, want)
		}
		for _, d := range r.Densities {
			if n := refit.ByZone[d.Zone].N(); d.Samples != n {
				t.Fatalf("%v: Zone %v density of %d samples, refit %d", scale, d.Zone, d.Samples, n)
			}
		}
	}
}

func TestFig11(t *testing.T) {
	c := smallCorpus(t)
	r, err := Fig11(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Densities) != 3 {
		t.Fatalf("densities %d", len(r.Densities))
	}
	// Means ordered A < BC < D; boundary between BC and D means.
	var means [3]float64
	for _, d := range r.Densities {
		switch d.Zone {
		case physics.MergedA:
			means[0] = d.Mean
		case physics.MergedBC:
			means[1] = d.Mean
		case physics.MergedD:
			means[2] = d.Mean
		}
	}
	if !(means[0] < means[1] && means[1] < means[2]) {
		t.Fatalf("mean ordering: %v", means)
	}
	if r.Boundary <= means[1] || r.Boundary >= means[2] {
		t.Fatalf("boundary %.3f outside (%.3f, %.3f)", r.Boundary, means[1], means[2])
	}
}

func TestSweepShape(t *testing.T) {
	c := smallCorpus(t)
	r, err := Sweep(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Points) != len(feature.Metrics)*len(r.Sizes) {
		t.Fatalf("points %d", len(r.Points))
	}
	// The paper's headline comparison: at every n, peak-harmonic
	// accuracy beats Euclidean, Mahalanobis and temperature on average.
	var peakAvg, euAvg, maAvg, tempAvg float64
	for _, n := range r.Sizes {
		peakAvg += r.At(feature.MetricPeakHarmonic, n).Accuracy
		euAvg += r.At(feature.MetricEuclidean, n).Accuracy
		maAvg += r.At(feature.MetricMahalanobis, n).Accuracy
		tempAvg += r.At(feature.MetricTemperature, n).Accuracy
	}
	k := float64(len(r.Sizes))
	peakAvg, euAvg, maAvg, tempAvg = peakAvg/k, euAvg/k, maAvg/k, tempAvg/k
	if !(peakAvg > euAvg && peakAvg > maAvg && peakAvg > tempAvg) {
		t.Fatalf("accuracy ordering: peak %.3f eu %.3f ma %.3f temp %.3f", peakAvg, euAvg, maAvg, tempAvg)
	}
	// Temperature is near chance (the paper: "temperature data does not
	// work for classification at all").
	if tempAvg > 0.7 {
		t.Fatalf("temperature accuracy %.3f suspiciously high", tempAvg)
	}
	// Peak-harmonic is strong even with few samples.
	if r.At(feature.MetricPeakHarmonic, 15).Accuracy < 0.85 {
		t.Fatalf("peak accuracy at n=15: %.3f", r.At(feature.MetricPeakHarmonic, 15).Accuracy)
	}
	if r.At(feature.MetricPeakHarmonic, 5) == nil || r.At(feature.Metric(99), 5) != nil {
		t.Fatal("At lookup broken")
	}
	if !strings.Contains(r.String(), "Fig. 12") {
		t.Fatal("render missing titles")
	}
}

func TestTable3Shape(t *testing.T) {
	c := smallCorpus(t)
	r, err := Table3(c)
	if err != nil {
		t.Fatal(err)
	}
	peak := r.Confusion[feature.MetricPeakHarmonic]
	eu := r.Confusion[feature.MetricEuclidean]
	// The fatal error class the paper highlights: Zone D misclassified
	// as BC. Peak-harmonic must make fewer such errors than Euclidean
	// in recall terms.
	if peak.Recall(physics.MergedD) < eu.Recall(physics.MergedD) {
		t.Fatalf("D recall: peak %.3f < euclidean %.3f", peak.Recall(physics.MergedD), eu.Recall(physics.MergedD))
	}
	if peak.Accuracy() <= r.Confusion[feature.MetricTemperature].Accuracy() {
		t.Fatal("peak harmonic should beat temperature")
	}
	if !strings.Contains(r.String(), "confusion tables") {
		t.Fatal("render broken")
	}
}

func TestFig15AndTable4(t *testing.T) {
	c := smallCorpus(t)
	f15, err := Fig15(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(f15.Models.Models) < 1 {
		t.Fatal("no lifetime models")
	}
	for _, m := range f15.Models.Models {
		if m.Slope <= 0 {
			t.Fatalf("slope %g", m.Slope)
		}
	}
	if f15.Points == 0 {
		t.Fatal("no pooled points")
	}
	t4, err := Table4(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 12 {
		t.Fatalf("rows %d", len(t4.Rows))
	}
	// Events recorded for pumps 4, 5, 7, 8.
	events := map[int]bool{}
	for _, row := range t4.Rows {
		if row.Event != 0 {
			events[row.PumpID] = true
		}
	}
	for _, id := range []int{4, 5, 7, 8} {
		if !events[id] {
			t.Fatalf("pump %d missing its maintenance event", id)
		}
	}
	if t4.WastedUSD <= 0 {
		t.Fatal("no wasted value computed")
	}
	if t4.Fleet.LifetimeGain <= 1 {
		t.Fatalf("lifetime gain %.2f", t4.Fleet.LifetimeGain)
	}
	if !strings.Contains(t4.String(), "paper 22%") {
		t.Fatal("render broken")
	}
}

func TestHeadline(t *testing.T) {
	c := smallCorpus(t)
	r, err := Headline(c)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's headline shape: >1 lifetime gain, positive savings.
	if r.LifetimeGain <= 1 {
		t.Fatalf("lifetime gain %.2f", r.LifetimeGain)
	}
	if r.SavingsFraction <= 0 || r.SavingsFraction >= 1 {
		t.Fatalf("savings %.3f", r.SavingsFraction)
	}
	if r.Breakdowns != 1 {
		t.Fatalf("breakdowns %d (pump 7 should be the only BM)", r.Breakdowns)
	}
	// One run prints one lifetime gain: the headline is Table IV's.
	t4, err := Table4(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.LifetimeGain != t4.Fleet.LifetimeGain || r.SavingsFraction != t4.Fleet.SavingsFraction {
		t.Errorf("headline (%.4fx, %.4f) disagrees with Table IV's fleet (%.4fx, %.4f)",
			r.LifetimeGain, r.SavingsFraction, t4.Fleet.LifetimeGain, t4.Fleet.SavingsFraction)
	}
}

func TestAblationAdaptiveSampling(t *testing.T) {
	c := smallCorpus(t)
	r, err := AblationAdaptiveSampling(c)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, s := range r.ZoneShare {
		total += s
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("zone shares sum to %.3f", total)
	}
	// Direction check: adaptive must win exactly when the share-
	// weighted measurement rate is below the fixed rate. (The label
	// fleet is deliberately aged, so adaptive may lose here; the
	// healthy-fleet win is asserted in the mote package.)
	weightedRate := r.ZoneShare[physics.MergedA]/3 + r.ZoneShare[physics.MergedBC] + r.ZoneShare[physics.MergedD]*2
	if weightedRate < 1 != (r.AdaptiveLifetimeYears > r.FixedLifetimeYears) {
		t.Fatalf("adaptive %.2f vs fixed %.2f inconsistent with weighted rate %.2f",
			r.AdaptiveLifetimeYears, r.FixedLifetimeYears, weightedRate)
	}
	if r.AdaptiveLifetimeYears <= 0 || r.FixedLifetimeYears <= 0 {
		t.Fatal("non-positive lifetimes")
	}
}

func TestAblationTrendRUL(t *testing.T) {
	c := smallCorpus(t)
	r, err := AblationTrendRUL(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.Pumps == 0 {
		t.Fatal("no pumps compared")
	}
	if r.MAERansac < 0 || r.MAETrend < 0 {
		t.Fatal("negative MAE")
	}
}

func TestAblationRMS(t *testing.T) {
	c := smallCorpus(t)
	r, err := AblationRMS(c)
	if err != nil {
		t.Fatal(err)
	}
	// The peak harmonic distance must beat the RMS magnitude feature —
	// the reason the paper's evaluation drops RMS despite defining it.
	if r.PeakAccuracy <= r.RMSAccuracy {
		t.Fatalf("peak %.3f should beat RMS %.3f", r.PeakAccuracy, r.RMSAccuracy)
	}
	if r.PeakRecallD < r.RMSRecallD {
		t.Fatalf("peak D recall %.3f below RMS %.3f", r.PeakRecallD, r.RMSRecallD)
	}
	if !strings.Contains(r.String(), "RMS accuracy") {
		t.Fatal("render broken")
	}
}

func TestCharts(t *testing.T) {
	c := smallCorpus(t)
	f5, err := Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if chart := f5.Chart(); !strings.Contains(chart, "legend:") || !strings.Contains(chart, "1 yr") {
		t.Fatalf("fig5 chart broken:\n%s", chart)
	}
	f8, err := Fig8(7)
	if err != nil {
		t.Fatal(err)
	}
	if chart := f8.Chart(); !strings.Contains(chart, "x-axis avg") {
		t.Fatal("fig8 chart broken")
	}
	f11, err := Fig11(c)
	if err != nil {
		t.Fatal(err)
	}
	if chart := f11.Chart(); !strings.Contains(chart, "boundary") {
		t.Fatal("fig11 chart broken")
	}
	f15, err := Fig15(c)
	if err != nil {
		t.Fatal(err)
	}
	if len(f15.Scatter) == 0 {
		t.Fatal("fig15 scatter missing")
	}
	if chart := f15.Chart(); !strings.Contains(chart, "Model I") || !strings.Contains(chart, "threshold") {
		t.Fatal("fig15 chart broken")
	}
	sweep, err := Sweep(c)
	if err != nil {
		t.Fatal(err)
	}
	if chart := sweep.Chart(); !strings.Contains(chart, "accuracy") {
		t.Fatal("sweep chart broken")
	}
	t4, err := Table4(c)
	if err != nil {
		t.Fatal(err)
	}
	if chart := t4.Chart(); !strings.Contains(chart, "pump 7") || !strings.Contains(chart, "threshold") {
		t.Fatal("table4/fig16 chart broken")
	}
	// Every charted result satisfies the Charter interface.
	for _, ch := range []Charter{f5, f8, f11, f15, sweep, t4} {
		if ch.Chart() == "" {
			t.Fatal("empty chart")
		}
	}
}

func TestAblationWelch(t *testing.T) {
	c := smallCorpus(t)
	r, err := AblationWelch(c)
	if err != nil {
		t.Fatal(err)
	}
	if r.DCTAccuracy <= 0 || r.DCTAccuracy > 1 || r.WelchAccuracy <= 0 || r.WelchAccuracy > 1 {
		t.Fatalf("accuracies out of range: %+v", r)
	}
	// Both estimators must do far better than chance; which wins is the
	// experiment's finding, not a precondition.
	if r.DCTAccuracy < 0.6 || r.WelchAccuracy < 0.6 {
		t.Fatalf("an estimator collapsed: %+v", r)
	}
	if !strings.Contains(r.String(), "Welch") {
		t.Fatal("render broken")
	}
}

func TestRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-corpus sweep")
	}
	r, err := Robustness(Small, []int64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Runs) != 3 {
		t.Fatalf("runs %d", len(r.Runs))
	}
	// The reproduction's shapes must hold at every seed, not on
	// average: peak beats temperature, the boundary is positive, the
	// lifetime gain exceeds 1.
	for _, run := range r.Runs {
		if run.PeakAccuracy <= run.TempAccuracy {
			t.Fatalf("seed %d: peak %.3f <= temp %.3f", run.Seed, run.PeakAccuracy, run.TempAccuracy)
		}
		if run.Boundary <= 0 {
			t.Fatalf("seed %d: boundary %.3f", run.Seed, run.Boundary)
		}
		if run.LifetimeGain <= 1 {
			t.Fatalf("seed %d: lifetime gain %.2f", run.Seed, run.LifetimeGain)
		}
		if run.PeakAccuracy < 0.85 {
			t.Fatalf("seed %d: peak accuracy %.3f", run.Seed, run.PeakAccuracy)
		}
	}
	if !strings.Contains(r.String(), "aggregates over seeds") {
		t.Fatal("render broken")
	}
}
