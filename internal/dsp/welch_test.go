package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestWelchPeakFrequency(t *testing.T) {
	fs := 4096.0
	n := 4096
	f0 := 480.0
	x := make([]float64, n)
	for i := range x {
		x[i] = 2 * math.Sin(2*math.Pi*f0*float64(i)/fs)
	}
	freq, psd, err := Welch(x, fs, 512)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for k := range psd {
		if psd[k] > psd[best] {
			best = k
		}
	}
	if math.Abs(freq[best]-f0) > fs/512 {
		t.Fatalf("peak at %.1f Hz, want %.1f", freq[best], f0)
	}
}

func TestWelchIntegratesToVariance(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	fs := 1000.0
	x := make([]float64, 8192)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	freq, psd, err := Welch(x, fs, 256)
	if err != nil {
		t.Fatal(err)
	}
	df := freq[1] - freq[0]
	var total float64
	for _, p := range psd {
		total += p * df
	}
	// Welch normalization recovers variance within a few percent.
	if math.Abs(total-Variance(x)) > 0.1*Variance(x) {
		t.Fatalf("integrated %.4f vs variance %.4f", total, Variance(x))
	}
}

func TestWelchReducesVarianceVsPeriodogram(t *testing.T) {
	// The whole point of Welch: per-bin variance shrinks by ~the number
	// of averaged segments relative to the raw periodogram.
	rng := rand.New(rand.NewSource(3))
	fs := 1000.0
	const trials = 20
	var varPer, varWelch float64
	for trial := 0; trial < trials; trial++ {
		x := make([]float64, 2048)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		_, per, err := PeriodogramInto(nil, nil, x, fs)
		if err != nil {
			t.Fatal(err)
		}
		_, wel, err := Welch(x, fs, 256)
		if err != nil {
			t.Fatal(err)
		}
		varPer += Variance(per[1 : len(per)-1])
		varWelch += Variance(wel[1 : len(wel)-1])
	}
	if varWelch >= varPer/3 {
		t.Fatalf("Welch variance %.6g not ≪ periodogram %.6g", varWelch/trials, varPer/trials)
	}
}

// TestWelchErrorsAndClamps: an empty signal, a bad rate and a segment
// length that is not positive are refused, and so are 2-sample
// segments, whose Hann window is all zero; a segment longer than the
// signal is clamped to one segment.
func TestWelchErrorsAndClamps(t *testing.T) {
	if _, _, err := Welch(nil, 100, 16); err == nil {
		t.Fatal("want empty-signal error")
	}
	if _, _, err := Welch([]float64{1, 2}, 0, 16); err == nil {
		t.Fatal("want bad-rate error")
	}
	x := make([]float64, 100)
	for i := range x {
		x[i] = math.Sin(float64(i))
	}
	if _, _, err := Welch(x[:2], 100, 16); err == nil {
		t.Fatal("2-sample signal: want an error, not a NaN spectrum")
	}
	for _, seg := range []int{0, -1, 2} {
		if _, _, err := Welch(x, 100, seg); err == nil {
			t.Fatalf("segment length %d: want an error", seg)
		}
		if err := WelchInto(make([]float64, 51), make([]float64, 51), x, 100, seg); err == nil {
			t.Fatalf("WelchInto segment length %d: want an error", seg)
		}
	}
	freq, psd, err := Welch(x, 100, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(freq) != 51 || len(psd) != 51 {
		t.Fatalf("clamped lengths %d %d", len(freq), len(psd))
	}
	if err := WelchInto(make([]float64, 50), make([]float64, 51), x, 100, 1024); err == nil {
		t.Fatal("short freq: want an error")
	}
}

// TestWelchZeroOverlapIsDisjoint: the segments do not overlap, so
// 1,024 samples in 256-sample segments are four disjoint Hann-windowed
// periodograms of the demeaned signal, averaged.
func TestWelchZeroOverlapIsDisjoint(t *testing.T) {
	const n, seg, fs = 1024, 256, 1000.0
	rng := rand.New(rand.NewSource(7))
	x := make([]float64, n)
	var mean float64
	for i := range x {
		x[i] = 0.3 + rng.NormFloat64()
		mean += x[i]
	}
	mean /= n
	_, psd, err := Welch(x, fs, seg)
	if err != nil {
		t.Fatal(err)
	}
	w := HannWindow(seg)
	var wp float64
	for _, v := range w {
		wp += v * v
	}
	want := make([]float64, seg/2+1)
	buf := make([]complex128, seg)
	for start := 0; start < n; start += seg {
		for i := range buf {
			buf[i] = complex((x[start+i]-mean)*w[i], 0)
		}
		FFT(buf)
		for k := range want {
			p := (real(buf[k])*real(buf[k]) + imag(buf[k])*imag(buf[k])) / (fs * wp)
			if k != 0 && k != seg/2 {
				p *= 2
			}
			want[k] += p / (n / seg)
		}
	}
	if len(psd) != len(want) {
		t.Fatalf("%d bins, want %d", len(psd), len(want))
	}
	for k := range want {
		if math.Abs(psd[k]-want[k]) > 1e-12*math.Abs(want[k]) {
			t.Fatalf("bin %d: %g, want %g (four disjoint segments)", k, psd[k], want[k])
		}
	}
}
