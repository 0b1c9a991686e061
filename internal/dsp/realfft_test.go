package dsp

import (
	"math"
	"math/cmplx"
	"math/rand"
	"strconv"
	"testing"
)

// The real-input FFT against the complex path it replaced. Its rounding
// differs from the complex chain's, so the proofs are bounded rather
// than bitwise: per bin within 1e-12 of the spectrum's total (power for
// a power spectrum, the L2 norm for an amplitude or a coefficient
// vector). Kernel rounding sits near 1e-16 of it.
const realBound = 1e-12

// halfSpectrum is realFFT into a fresh buffer: bins 0…n/2 of x.
func halfSpectrum(x []float64) []complex128 {
	z := make([]complex128, len(x)/2+1)
	realFFT(z, x, nil, 0)
	return z
}

// complexDCT is the orthonormal DCT-II on the complex path:
// Makhoul's even-odd permutation written in index order, the n-point
// complex FFT with its swap pass, then the cos/sin recombination.
func complexDCT(x []float64) []float64 {
	n := len(x)
	v := make([]complex128, n)
	for i := 0; i < (n+1)/2; i++ {
		v[i] = complex(x[2*i], 0)
	}
	for i := 0; i < n/2; i++ {
		v[n-1-i] = complex(x[2*i+1], 0)
	}
	FFT(v)
	out := make([]float64, n)
	out[0] = real(v[0]) * math.Sqrt(1/float64(n))
	for k := 1; k < n; k++ {
		s, c := math.Sincos(math.Pi * float64(k) / (2 * float64(n)))
		out[k] = (real(v[k])*c + imag(v[k])*s) * math.Sqrt(2/float64(n))
	}
	return out
}

// complexPeriodogram is PeriodogramInto on the complex path.
func complexPeriodogram(x []float64, fs float64) []float64 {
	n := len(x)
	spec := complexHalfSpectrum(Demean(x))
	psd := make([]float64, len(spec))
	for k, m := range spec {
		p := (real(m)*real(m) + imag(m)*imag(m)) / (fs * float64(n))
		if k != 0 && !(n%2 == 0 && k == len(spec)-1) {
			p *= 2
		}
		psd[k] = p
	}
	return psd
}

// complexWelch is WelchInto on the complex path: the average of the
// one-sided periodograms of x's disjoint seg-sample segments, each
// (x − mean)·Hann through the seg-point complex FFT.
func complexWelch(x []float64, fs float64, seg int) []float64 {
	w := HannWindow(seg)
	var wp float64
	for _, v := range w {
		wp += v * v
	}
	mu, segs := Mean(x), len(x)/seg
	out := make([]float64, seg/2+1)
	y := make([]float64, seg)
	for s := 0; s < segs; s++ {
		for i := range y {
			y[i] = (x[s*seg+i] - mu) * w[i]
		}
		for k, m := range complexHalfSpectrum(y) {
			p := (real(m)*real(m) + imag(m)*imag(m)) / (fs * wp)
			if k != 0 && !(seg%2 == 0 && k == seg/2) {
				p *= 2
			}
			out[k] += p / float64(segs)
		}
	}
	return out
}

// complexAxisPower is addAxisPower on the complex path: complexDCT of
// the demeaned counts·scale, squared and scaled by 1/(2K).
func complexAxisPower(counts []int16, scale float64) []float64 {
	c := complexDCT(Demean(countsG(counts, scale)))
	for k, v := range c {
		c[k] = v * v / (2 * float64(len(c)))
	}
	return c
}

// toCounts rounds x to ADC counts, saturating at the int16 range.
func toCounts(x []float64) []int16 {
	c := make([]int16, len(x))
	for i, v := range x {
		c[i] = int16(math.Max(math.MinInt16, math.Min(math.MaxInt16, math.Round(v))))
	}
	return c
}

// complexEnvelope is EnvelopeInto on the complex path.
func complexEnvelope(x []float64) []float64 {
	n := len(x)
	buf := make([]complex128, n)
	for i, v := range x {
		buf[i] = complex(v, 0)
	}
	FFT(buf)
	for k := 1; k < (n+1)/2; k++ {
		buf[k] *= 2
	}
	for k := n/2 + 1; k < n; k++ {
		buf[k] = 0
	}
	IFFT(buf)
	out := make([]float64, n)
	for i, v := range buf {
		out[i] = cmplx.Abs(v)
	}
	return out
}

// checkBound fails t unless every got[k] is within bound·total of
// want[k].
func checkBound(t *testing.T, name string, got, want []float64, total, bound float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, reference %d", name, len(got), len(want))
	}
	for k := range want {
		if d := math.Abs(got[k] - want[k]); !(d <= bound*total) {
			t.Fatalf("%s: bin %d: %v, reference %v (|Δ| %.3g of a %.3g bound)", name, k, got[k], want[k], d, bound*total)
		}
	}
}

func sum(x []float64) (s float64) {
	for _, v := range x {
		s += v
	}
	return s
}

func norm(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s)
}

// checkRealFFT compares realFFT of x with taper w (nil: none) and
// offset mu with the complex half spectrum of (x − mu)·w, real and
// imaginary parts alike, within realBound of the full spectrum's L2
// norm.
func checkRealFFT(t *testing.T, x, w []float64, mu float64) {
	t.Helper()
	y := make([]float64, len(x))
	for i, v := range x {
		y[i] = v - mu
		if w != nil {
			y[i] *= w[i]
		}
	}
	got := make([]complex128, len(x)/2+1)
	realFFT(got, x, w, mu)
	want := complexHalfSpectrum(y)
	var e float64
	for _, v := range y {
		e += v * v
	}
	total := math.Sqrt(float64(len(x)) * e) // Parseval: ‖X‖₂
	name := "n=" + strconv.Itoa(len(x))
	for k := range want {
		d := cmplx.Abs(got[k] - want[k])
		if !(d <= realBound*total) {
			t.Fatalf("%s: bin %d: %v, complex FFT %v (|Δ| %.3g of a %.3g bound)", name, k, got[k], want[k], d, realBound*total)
		}
	}
	if imag(got[0]) != 0 || imag(got[len(got)-1]) != 0 {
		t.Fatalf("%s: DC %v and Nyquist %v must be real", name, got[0], got[len(got)-1])
	}
}

// evenLengths are the real plan's length classes: n/2 a power of two
// (butterflies on bit-reversed slots), n/2 even or odd but not a power
// of two (Bluestein), n ≡ 0 and 2 (mod 4) (the DCT's slot table ends in
// a pair of its own), and the smallest.
var evenLengths = []int{2, 4, 6, 8, 10, 12, 18, 20, 34, 96, 998, 1000, 1022, 1024, 2048, 4096}

// TestRealFFTMatchesComplex pins realFFT to the complex FFT of the same
// samples at every even length class, untapered and under a Hann taper
// about the mean (a Welch segment).
func TestRealFFTMatchesComplex(t *testing.T) {
	rng := rand.New(rand.NewSource(39))
	for _, n := range evenLengths {
		x := make([]float64, n)
		for i := range x {
			x[i] = 2 + rng.NormFloat64()
		}
		checkRealFFT(t, x, nil, 0)
		checkRealFFT(t, x, HannWindow(n), Mean(x))
	}
}

// TestRealKernelsMatchComplexChain bounds every caller of the real
// plan against its complex-path reference: addAxisPower (Makhoul over
// the n-point complex FFT), PeriodogramInto, EnvelopeInto,
// EnvelopeSpectrumInto and WelchInto (n-sample segments of a 4.5n-sample
// signal, the tail dropped), at every even length class and, for the
// odd lengths that keep the complex path, a few of those.
func TestRealKernelsMatchComplexChain(t *testing.T) {
	rng := rand.New(rand.NewSource(40))
	const fs = 4000.0
	for _, n := range append([]int{3, 5, 35, 1023}, evenLengths...) {
		x := make([]float64, n)
		for i := range x {
			x[i] = 1 + rng.NormFloat64() + math.Sin(float64(i)/7)
		}
		name := "n=" + strconv.Itoa(n)

		counts := make([]int16, n)
		for i, v := range x {
			counts[i] = int16(300 * v)
		}
		got, _, _ := axisPower(counts, adcScale)
		want := complexAxisPower(counts, adcScale)
		checkBound(t, name+" axis power", got, want, sum(want), realBound)

		_, psd, err := PeriodogramInto(nil, nil, x, fs)
		if err != nil {
			t.Fatal(err)
		}
		want = complexPeriodogram(x, fs)
		checkBound(t, name+" periodogram", psd, want, sum(want), realBound)

		env := complexEnvelope(x)
		checkBound(t, name+" envelope", EnvelopeInto(nil, x), env, norm(env), realBound)
		_, psd, err = EnvelopeSpectrumInto(nil, nil, x, fs)
		if err != nil {
			t.Fatal(err)
		}
		want = complexPeriodogram(env, fs)
		checkBound(t, name+" envelope spectrum", psd, want, sum(want), realBound)

		long := make([]float64, 4*n+n/2)
		for i := range long {
			long[i] = 0.5 + rng.NormFloat64() + math.Sin(float64(i)/5)
		}
		_, psd, err = Welch(long, fs, n)
		if n == 2 {
			// A 2-sample Hann window is all zero.
			if err == nil {
				t.Fatal("Welch with 2-sample segments: want an error")
			}
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		want = complexWelch(long, fs, n)
		checkBound(t, name+" Welch", psd, want, sum(want), realBound)
	}
}

// FuzzRealFFT checks realFFT against the complex FFT at random even
// lengths to 4,096 — powers of two and Bluestein lengths alike — on
// samples drawn from seed at a random offset and scale, untapered and
// under a random taper about the mean, and RecordPower of three axes
// of the samples rounded to ADC counts against the sum of their complex
// Makhoul chains.
func FuzzRealFFT(f *testing.F) {
	f.Add(int64(1), uint16(512), 1.0, 0.0)
	f.Add(int64(2), uint16(500), 1e-3, 5.0)
	f.Add(int64(3), uint16(1), 1e6, -1e6)
	f.Add(int64(4), uint16(2048), 0.0039, 0.0)
	f.Add(int64(5), uint16(499), 1.0, 1.0)
	f.Fuzz(func(t *testing.T, seed int64, half uint16, scale, offset float64) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.IsNaN(offset) || math.IsInf(offset, 0) ||
			math.Abs(scale) > 1e100 || math.Abs(offset) > 1e100 {
			t.Skip("finite samples whose energy is a finite float64")
		}
		n := 2 * (1 + int(half)%2048)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, n)
		w := make([]float64, n)
		for i := range x {
			x[i] = offset + scale*rng.NormFloat64()
			w[i] = rng.Float64()
		}
		checkRealFFT(t, x, nil, 0)
		checkRealFFT(t, x, w, Mean(x))
		// A record of three axes: the samples, their reversal and the
		// samples scaled by the taper.
		var axes [3][]int16
		axes[0] = toCounts(x)
		axes[1] = make([]int16, n)
		for i, c := range axes[0] {
			axes[1][n-1-i] = c
			x[i] *= w[i]
		}
		axes[2] = toCounts(x)
		got := make([]float64, n)
		RecordPower(got, &axes, adcScale)
		want := make([]float64, n)
		for _, counts := range axes {
			for k, v := range complexAxisPower(counts, adcScale) {
				want[k] += v
			}
		}
		checkBound(t, "n="+strconv.Itoa(n)+" record power", got, want, sum(want), realBound)
	})
}
