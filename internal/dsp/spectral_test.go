package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDemeanRemovesGravityBias(t *testing.T) {
	x := []float64{1.2, 1.4, 1.0, 1.4, 1.0} // mean 1.2 — e.g. a 1g bias
	y := Demean(x)
	if !almostEqual(Mean(y), 0, 1e-12) {
		t.Fatalf("mean after demean = %g", Mean(y))
	}
	// The shape is preserved.
	for i := range x {
		if !almostEqual(y[i], x[i]-1.2, 1e-12) {
			t.Fatalf("sample %d: %g", i, y[i])
		}
	}
}

func TestRMSEqualsStdAfterDemean(t *testing.T) {
	// The paper remarks rmsˣ is "simply a standard deviation" of the
	// vibration — true exactly after demeaning.
	rng := rand.New(rand.NewSource(20))
	x := make([]float64, 500)
	for i := range x {
		x[i] = rng.NormFloat64()*2 + 5
	}
	if !almostEqual(RMS(Demean(x)), Std(x), 1e-10) {
		t.Fatalf("RMS(demeaned) %.12f != Std %.12f", RMS(Demean(x)), Std(x))
	}
}

func TestRMSKnownValues(t *testing.T) {
	if got := RMS([]float64{3, 4}); !almostEqual(got, math.Sqrt(12.5), 1e-12) {
		t.Fatalf("RMS = %g", got)
	}
	if RMS(nil) != 0 {
		t.Fatal("RMS(nil) != 0")
	}
}

func TestPSDDCTParsevalIdentity(t *testing.T) {
	// sum_k s_k == rms² / 2 with the paper's 1/(2K) scaling, where rms is
	// computed on the demeaned signal.
	rng := rand.New(rand.NewSource(21))
	x := make([]float64, 1024)
	for i := range x {
		x[i] = rng.NormFloat64() + 0.7
	}
	s := PSDDCT(x)
	var sum float64
	for _, v := range s {
		sum += v
	}
	r := RMS(Demean(x))
	if !almostEqual(sum, r*r/2, 1e-9) {
		t.Fatalf("sum(s)=%.12f, rms²/2=%.12f", sum, r*r/2)
	}
}

func TestPeriodogramPeakFrequency(t *testing.T) {
	fs := 4096.0
	n := 1024
	f0 := 480.0
	x := make([]float64, n)
	for i := range x {
		x[i] = 2 * math.Sin(2*math.Pi*f0*float64(i)/fs)
	}
	freq, psd, err := Periodogram(x, fs)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for k := range psd {
		if psd[k] > psd[best] {
			best = k
		}
	}
	if math.Abs(freq[best]-f0) > fs/float64(n) {
		t.Fatalf("peak at %.1f Hz, want %.1f", freq[best], f0)
	}
}

func TestPeriodogramIntegratesToVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	fs := 1000.0
	x := make([]float64, 512)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	freq, psd, err := Periodogram(x, fs)
	if err != nil {
		t.Fatal(err)
	}
	// Riemann sum of the one-sided PSD over df = fs/N recovers variance.
	df := fs / float64(len(x))
	var total float64
	for _, p := range psd {
		total += p * df
	}
	if !almostEqual(total, Variance(x), 1e-6) {
		t.Fatalf("integrated PSD %.9f, variance %.9f", total, Variance(x))
	}
	_ = freq
}

func TestPeriodogramErrors(t *testing.T) {
	if _, _, err := Periodogram(nil, 100); err == nil {
		t.Fatal("want error for empty signal")
	}
	if _, _, err := Periodogram([]float64{1, 2}, 0); err == nil {
		t.Fatal("want error for zero sampling rate")
	}
}

func TestBandPower(t *testing.T) {
	freq := []float64{0, 1, 2, 3, 4}
	psd := []float64{1, 1, 1, 1, 1}
	if got := BandPower(freq, psd, 0, 4); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("full band power %g", got)
	}
	if got := BandPower(freq, psd, 1, 2); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("sub band power %g", got)
	}
	if got := BandPower(freq, psd, 0.5, 1.5); !almostEqual(got, 1, 1e-12) {
		t.Fatalf("fractional band power %g", got)
	}
	if got := BandPower(freq, psd, 10, 20); got != 0 {
		t.Fatalf("out-of-range band power %g", got)
	}
}

func TestVarianceStats(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if !almostEqual(Variance(x), 4, 1e-12) {
		t.Fatalf("variance %g", Variance(x))
	}
	if !almostEqual(Std(x), 2, 1e-12) {
		t.Fatalf("std %g", Std(x))
	}
	if Variance(nil) != 0 || Mean(nil) != 0 {
		t.Fatal("empty-slice stats should be zero")
	}
}

func TestRMSNonNegativeProperty(t *testing.T) {
	f := func(x []float64) bool {
		clean := make([]float64, 0, len(x))
		for _, v := range x {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				clean = append(clean, v)
			}
		}
		return RMS(clean) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestPeriodogramIntoMatchesComposition pins PeriodogramInto, which
// demeans straight into the transform buffer, bit for bit to the
// composition it replaced (Demean, a real FFT, one-sided scaling) across
// power-of-two, Bluestein, odd and tiny lengths — and pins buffer
// reuse: oversized outputs are resliced, short ones grown, stale
// contents never leak.
func TestPeriodogramIntoMatchesComposition(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	const fs = 4000.0
	var freqBuf, psdBuf []float64
	for _, n := range []int{1024, 1, 2, 5, 1000, 1023, 16, 2048} {
		x := make([]float64, n)
		for i := range x {
			x[i] = 3 + rng.NormFloat64()
		}
		spec := realFFT(Demean(x))
		scale := 1 / (fs * float64(n))
		wantPSD := make([]float64, len(spec))
		for k, m := range spec {
			p := (real(m)*real(m) + imag(m)*imag(m)) * scale
			if k != 0 && !(n%2 == 0 && k == len(spec)-1) {
				p *= 2
			}
			wantPSD[k] = p
		}
		for i := range psdBuf {
			freqBuf[i], psdBuf[i] = -1, -1
		}
		var err error
		freqBuf, psdBuf, err = PeriodogramInto(freqBuf, psdBuf, x, fs)
		if err != nil {
			t.Fatal(err)
		}
		freq, psd, err := Periodogram(x, fs)
		if err != nil {
			t.Fatal(err)
		}
		if len(psdBuf) != n/2+1 || len(freqBuf) != n/2+1 || len(psd) != n/2+1 {
			t.Fatalf("n=%d: lens %d/%d/%d, want %d", n, len(freqBuf), len(psdBuf), len(psd), n/2+1)
		}
		for k := range wantPSD {
			if psdBuf[k] != wantPSD[k] || psd[k] != wantPSD[k] {
				t.Fatalf("n=%d bin %d: Into %g, Periodogram %g, composition %g", n, k, psdBuf[k], psd[k], wantPSD[k])
			}
			if f := float64(k) * fs / float64(n); freqBuf[k] != f || freq[k] != f {
				t.Fatalf("n=%d bin %d: freq %g/%g, want %g", n, k, freqBuf[k], freq[k], f)
			}
		}
	}
}
