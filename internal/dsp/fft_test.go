package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var s complex128
		for t := 0; t < n; t++ {
			angle := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			s += x[t] * cmplx.Exp(complex(0, angle))
		}
		out[k] = s
	}
	return out
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 12, 16, 31, 64, 100, 128, 257} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		got := append([]complex128(nil), x...)
		FFT(got)
		for k := range want {
			if cmplx.Abs(got[k]-want[k]) > 1e-8*(1+cmplx.Abs(want[k])) {
				t.Fatalf("n=%d bin %d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestIFFTInvertsFFT(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 6, 8, 15, 64, 129, 1024} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		y := append([]complex128(nil), x...)
		FFT(y)
		IFFT(y)
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-9 {
				t.Fatalf("n=%d sample %d: roundtrip %v want %v", n, i, y[i], x[i])
			}
		}
	}
}

func TestFFTLinearity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 96 // non power of two → exercises Bluestein
	a := make([]complex128, n)
	b := make([]complex128, n)
	sum := make([]complex128, n)
	for i := 0; i < n; i++ {
		a[i] = complex(rng.NormFloat64(), 0)
		b[i] = complex(rng.NormFloat64(), 0)
		sum[i] = 2*a[i] + 3*b[i]
	}
	FFT(a)
	FFT(b)
	FFT(sum)
	for k := 0; k < n; k++ {
		want := 2*a[k] + 3*b[k]
		if cmplx.Abs(sum[k]-want) > 1e-8*(1+cmplx.Abs(want)) {
			t.Fatalf("linearity violated at bin %d", k)
		}
	}
}

func TestFFTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, n := range []int{8, 33, 256, 1000} {
		x := make([]complex128, n)
		var timeEnergy float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			timeEnergy += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		FFT(x)
		var freqEnergy float64
		for _, v := range x {
			freqEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		freqEnergy /= float64(n)
		if !almostEqual(timeEnergy, freqEnergy, 1e-10) {
			t.Fatalf("n=%d Parseval: time %.12f freq %.12f", n, timeEnergy, freqEnergy)
		}
	}
}

// complexHalfSpectrum returns the half-spectrum (bins 0..N/2) of the
// real signal x the complex path computes: the FFT of x embedded in the
// complex plane. It is the reference of the real-input FFT.
func complexHalfSpectrum(x []float64) []complex128 {
	buf := make([]complex128, len(x))
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	FFT(buf)
	return buf[:len(x)/2+1]
}

func TestRealFFTImpulse(t *testing.T) {
	// The DFT of a unit impulse is flat with magnitude 1 everywhere.
	x := make([]float64, 16)
	x[0] = 1
	spec := halfSpectrum(x)
	if len(spec) != 9 {
		t.Fatalf("half spectrum length = %d, want 9", len(spec))
	}
	for k, v := range spec {
		if cmplx.Abs(v-1) > tol {
			t.Fatalf("bin %d = %v, want 1", k, v)
		}
	}
}

func TestRealFFTSinusoidBin(t *testing.T) {
	// A pure sinusoid at bin 5 must concentrate its energy there.
	n, bin := 128, 5
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * float64(bin) * float64(i) / float64(n))
	}
	spec := halfSpectrum(x)
	best, bestMag := 0, 0.0
	for k, v := range spec {
		if m := cmplx.Abs(v); m > bestMag {
			best, bestMag = k, m
		}
	}
	if best != bin {
		t.Fatalf("peak at bin %d, want %d", best, bin)
	}
	if !almostEqual(bestMag, float64(n)/2, 1e-9) {
		t.Fatalf("peak magnitude %.6f, want %.1f", bestMag, float64(n)/2)
	}
}

func TestFFTRoundtripProperty(t *testing.T) {
	f := func(re, im []float64) bool {
		n := len(re)
		if len(im) < n {
			n = len(im)
		}
		if n == 0 {
			return true
		}
		if n > 512 {
			n = 512
		}
		x := make([]complex128, n)
		for i := 0; i < n; i++ {
			r, m := re[i], im[i]
			if math.IsNaN(r) || math.IsInf(r, 0) {
				r = 0
			}
			if math.IsNaN(m) || math.IsInf(m, 0) {
				m = 0
			}
			// Clamp magnitudes so relative tolerance stays meaningful.
			r = math.Mod(r, 1e6)
			m = math.Mod(m, 1e6)
			x[i] = complex(r, m)
		}
		y := append([]complex128(nil), x...)
		FFT(y)
		IFFT(y)
		for i := range x {
			if cmplx.Abs(y[i]-x[i]) > 1e-6*(1+cmplx.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
