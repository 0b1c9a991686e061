package feature

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"vibepm/internal/dsp"
	"vibepm/internal/mems"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// captureRecord produces a stored measurement of the given pump at the
// given service time.
func captureRecord(t *testing.T, pump *physics.Pump, day float64) *store.Record {
	t.Helper()
	sensor, err := mems.New(mems.Config{Seed: int64(pump.ID())*1000 + 77})
	if err != nil {
		t.Fatal(err)
	}
	m := sensor.Measure(pump, day, 1024)
	rec := &store.Record{
		PumpID:       pump.ID(),
		ServiceDays:  day,
		SampleRateHz: m.SampleRateHz,
		ScaleG:       m.ScaleG,
	}
	for axis := 0; axis < 3; axis++ {
		rec.Raw[axis] = m.Raw[axis]
	}
	return rec
}

func healthyPump(seed int64) *physics.Pump {
	return physics.NewPump(physics.PumpConfig{ID: int(seed % 100), LifeDays: 600, Seed: seed})
}

func wornPump(seed int64) *physics.Pump {
	return physics.NewPump(physics.PumpConfig{ID: int(seed % 100), LifeDays: 600, InitialAgeDays: 540, Seed: seed})
}

func trainHealthyBaseline(t *testing.T, seed int64, n int) *Baseline {
	t.Helper()
	pump := healthyPump(seed)
	recs := make([]*store.Record, n)
	for i := range recs {
		recs[i] = captureRecord(t, pump, float64(i)*0.1)
	}
	b, err := TrainBaseline(recs, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.fill()
	if o.NumPeaks != DefaultNumPeaks || o.HannWindow != DefaultHannWindow {
		t.Fatalf("defaults = %+v", o)
	}
	o = Options{NumPeaks: 5, HannWindow: 8}.fill()
	if o.NumPeaks != 5 || o.HannWindow != 8 {
		t.Fatalf("explicit options clobbered: %+v", o)
	}
}

func TestExtractHarmonicFindsRotorPeaks(t *testing.T) {
	pump := healthyPump(1)
	rec := captureRecord(t, pump, 1)
	h := HarmonicOfRecord(rec, Options{})
	if len(h.Peaks) == 0 {
		t.Fatal("no peaks extracted")
	}
	if len(h.Peaks) > DefaultNumPeaks {
		t.Fatalf("too many peaks: %d", len(h.Peaks))
	}
	// Peaks sorted ascending in frequency.
	for i := 1; i < len(h.Peaks); i++ {
		if h.Peaks[i].Freq < h.Peaks[i-1].Freq {
			t.Fatal("peaks not frequency-sorted")
		}
	}
	// The strongest peak should sit near a low harmonic of the rotor.
	best := h.Peaks[0]
	for _, p := range h.Peaks {
		if p.Value > best.Value {
			best = p
		}
	}
	f0 := pump.RotorHz()
	ratio := best.Freq / f0
	nearest := math.Round(ratio)
	if nearest < 1 || math.Abs(ratio-nearest) > 0.35 {
		t.Fatalf("dominant peak at %.1f Hz is not near a rotor harmonic of %.1f Hz", best.Freq, f0)
	}
	if h.BinHz <= 0 {
		t.Fatalf("BinHz = %g", h.BinHz)
	}
}

// TestExtractHarmonicWindowBounded: a smoothing width pinned in Hz is
// SmoothingHz/binHz bins, and binHz follows the record's sample rate —
// near zero the quotient is billions of bins (a trained node folding
// one 1e-6 Hz record died allocating the Hann table). The window never
// exceeds the spectrum.
func TestExtractHarmonicWindowBounded(t *testing.T) {
	freq, psd := benchPSD(512)
	for i := range freq {
		freq[i] *= 1e-12
	}
	h := ExtractHarmonic(freq, psd, Options{SmoothingHz: 50})
	if want := ExtractHarmonic(freq, psd, Options{HannWindow: len(psd)}); !reflect.DeepEqual(h, want) {
		t.Fatalf("window not clamped to the spectrum:\ngot  %+v\nwant %+v", h, want)
	}
}

func TestPeakDistanceSelfIsZero(t *testing.T) {
	pump := healthyPump(2)
	rec := captureRecord(t, pump, 1)
	h := HarmonicOfRecord(rec, Options{})
	d, err := PeakDistance(h, h, 0, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d > 1e-12 {
		t.Fatalf("self distance %g", d)
	}
}

func TestPeakDistanceEmptyFeature(t *testing.T) {
	pump := healthyPump(3)
	h := HarmonicOfRecord(captureRecord(t, pump, 1), Options{})
	if _, err := PeakDistance(h, Harmonic{}, 0, 0, Options{}); !errors.Is(err, ErrEmptyFeature) {
		t.Fatalf("err = %v", err)
	}
	if _, err := PeakDistance(Harmonic{}, h, 0, 0, Options{}); !errors.Is(err, ErrEmptyFeature) {
		t.Fatalf("err = %v", err)
	}
}

func TestPeakDistanceSymmetryApprox(t *testing.T) {
	a := HarmonicOfRecord(captureRecord(t, healthyPump(4), 1), Options{})
	b := HarmonicOfRecord(captureRecord(t, wornPump(5), 1), Options{})
	pmax, fmax := MaxPeak(a, b)
	dab, err := PeakDistance(a, b, pmax, fmax, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dba, err := PeakDistance(b, a, pmax, fmax, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Algorithm 1 is not exactly symmetric, but the two directions must
	// agree to well within a factor of two.
	if dab <= 0 || dba <= 0 {
		t.Fatalf("distances %g %g must be positive", dab, dba)
	}
	ratio := dab / dba
	if ratio < 0.5 || ratio > 2 {
		t.Fatalf("asymmetry too large: %g vs %g", dab, dba)
	}
}

func TestPeakDistanceHighFrequencyPenalty(t *testing.T) {
	// Two features differing by one unmatched peak: the high-frequency
	// disagreement must cost more than the same-amplitude low-frequency
	// one (the property the paper highlights).
	base := Harmonic{Peaks: []dsp.Peak{{Freq: 100, Value: 1}}, BinHz: 2}
	lowExtra := Harmonic{Peaks: []dsp.Peak{{Freq: 100, Value: 1}, {Freq: 300, Value: 0.5}}, BinHz: 2}
	highExtra := Harmonic{Peaks: []dsp.Peak{{Freq: 100, Value: 1}, {Freq: 1900, Value: 0.5}}, BinHz: 2}
	dLow, err := PeakDistance(lowExtra, base, 1, 2000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	dHigh, err := PeakDistance(highExtra, base, 1, 2000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if dHigh <= dLow {
		t.Fatalf("high-frequency disagreement %g must exceed low-frequency %g", dHigh, dLow)
	}
}

func TestPeakDistanceMatchedWithinTolerance(t *testing.T) {
	// Peaks within n_h bins match and contribute only their gap.
	a := Harmonic{Peaks: []dsp.Peak{{Freq: 500, Value: 1}}, BinHz: 2}
	b := Harmonic{Peaks: []dsp.Peak{{Freq: 510, Value: 1}}, BinHz: 2} // 5 bins away < 24
	d, err := PeakDistance(a, b, 1, 1000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d > 0.02 {
		t.Fatalf("near-identical features distance %g", d)
	}
	// Beyond tolerance both peaks count as disagreements.
	c := Harmonic{Peaks: []dsp.Peak{{Freq: 700, Value: 1}}, BinHz: 2} // 100 bins away
	d2, err := PeakDistance(a, c, 1, 1000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if d2 <= d {
		t.Fatalf("far peaks distance %g should exceed near %g", d2, d)
	}
}

func TestTrainBaselineErrors(t *testing.T) {
	if _, err := TrainBaseline(nil, Options{}, nil); !errors.Is(err, ErrNoTraining) {
		t.Fatalf("err = %v", err)
	}
}

func TestDaSeparatesZones(t *testing.T) {
	b := trainHealthyBaseline(t, 6, 10)
	healthy := healthyPump(7)
	worn := wornPump(8)
	var daA, daD float64
	const n = 8
	for i := 0; i < n; i++ {
		day := 1 + float64(i)*0.2
		a, err := b.Da(captureRecord(t, healthy, day))
		if err != nil {
			t.Fatal(err)
		}
		d, err := b.Da(captureRecord(t, worn, day))
		if err != nil {
			t.Fatal(err)
		}
		daA += a / n
		daD += d / n
	}
	if daD <= daA {
		t.Fatalf("Da(D)=%.4f must exceed Da(A)=%.4f", daD, daA)
	}
	if daD < daA*1.5 {
		t.Fatalf("zone separation too weak: %.4f vs %.4f", daA, daD)
	}
}

func TestScoreAllMetrics(t *testing.T) {
	b := trainHealthyBaseline(t, 9, 8)
	pump := wornPump(10)
	rec := captureRecord(t, pump, 2)
	for _, m := range Metrics {
		var src TemperatureSource
		if m == MetricTemperature {
			src = pumpTemp{pump}
		}
		v, err := b.Score(m, rec, src)
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if m != MetricTemperature && v <= 0 {
			t.Fatalf("%v score %g", m, v)
		}
	}
	// Temperature without a source errors.
	if _, err := b.Score(MetricTemperature, rec, nil); err == nil {
		t.Fatal("want error for missing temperature source")
	}
	if _, err := b.Score(Metric(99), rec, nil); err == nil {
		t.Fatal("want error for unknown metric")
	}
}

// pumpTemp adapts a single pump to the FICS temperature interface.
type pumpTemp struct{ p *physics.Pump }

func (t pumpTemp) Temperature(_ int, serviceDays float64) float64 {
	return t.p.TemperatureAt(serviceDays)
}

func TestMetricStrings(t *testing.T) {
	want := map[Metric]string{
		MetricPeakHarmonic: "Peak harmonic dist.",
		MetricEuclidean:    "Euclidian dist.",
		MetricMahalanobis:  "Mahal dist.",
		MetricTemperature:  "Temp.",
		Metric(42):         "Metric(?)",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
	if len(Metrics) != 4 {
		t.Fatalf("Metrics = %d entries", len(Metrics))
	}
}

func TestEuclideanOverlapsUnderFluctuation(t *testing.T) {
	// The mechanism behind Table III: a worn pump's multiplicative
	// amplitude fluctuation makes its Euclidean PSD distance overlap
	// the mid-life population, while the harmonic distance stays
	// ordered. We check the weaker, testable property: the coefficient
	// of variation of the Euclidean score in Zone D exceeds that of the
	// harmonic score.
	b := trainHealthyBaseline(t, 11, 8)
	worn := wornPump(12)
	var eu, ha []float64
	for i := 0; i < 12; i++ {
		rec := captureRecord(t, worn, 1+float64(i)*0.15)
		e, err := b.Score(MetricEuclidean, rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		h, err := b.Score(MetricPeakHarmonic, rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		eu = append(eu, e)
		ha = append(ha, h)
	}
	cvE := dsp.Std(eu) / dsp.Mean(eu)
	cvH := dsp.Std(ha) / dsp.Mean(ha)
	if cvE <= cvH {
		t.Fatalf("Euclidean CV %.3f should exceed harmonic CV %.3f in Zone D", cvE, cvH)
	}
}

func TestMaxPeak(t *testing.T) {
	a := Harmonic{Peaks: []dsp.Peak{{Freq: 10, Value: 2}, {Freq: 30, Value: 1}}}
	b := Harmonic{Peaks: []dsp.Peak{{Freq: 50, Value: 0.5}}}
	pmax, fmax := MaxPeak(a, b)
	if pmax != 2 || fmax != 50 {
		t.Fatalf("MaxPeak = %g %g", pmax, fmax)
	}
	pmax, fmax = MaxPeak()
	if pmax != 0 || fmax != 0 {
		t.Fatal("empty MaxPeak should be zero")
	}
}
