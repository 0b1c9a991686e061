package dsp

import (
	"errors"
	"math"
)

// ErrEmptySignal is returned by spectral estimators that need at least
// one sample.
var ErrEmptySignal = errors.New("dsp: empty signal")

// Mean returns the arithmetic mean of x (0 for an empty slice).
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Demean subtracts the mean of x from every sample and returns the
// result as a new slice. This is the paper's normalization â = a − 1·ā
// that removes the gravity bias from raw accelerometer readings.
func Demean(x []float64) []float64 {
	return DemeanInto(make([]float64, len(x)), x)
}

// DemeanInto is Demean writing into dst (grown if needed, returned
// resliced to len(x)). dst may alias x for an in-place demean.
func DemeanInto(dst, x []float64) []float64 {
	if cap(dst) < len(x) {
		dst = make([]float64, len(x))
	}
	dst = dst[:len(x)]
	mu := Mean(x)
	for i, v := range x {
		dst[i] = v - mu
	}
	return dst
}

// RMS returns sqrt(mean(x²)). Applied to a demeaned acceleration trace
// it equals the standard deviation of the vibration, the paper's
// per-axis RMS feature rˡ_mn = ‖âˡ‖/√K.
func RMS(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v * v
	}
	return math.Sqrt(s / float64(len(x)))
}

// Variance returns the population variance of x.
func Variance(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	mu := Mean(x)
	var s float64
	for _, v := range x {
		d := v - mu
		s += d * d
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// AddAxisPower is one axis of the paper's PSD feature
// sˡ = (âˡ·W_K)²/(2K), W_K the orthonormal DCT-II, read straight from
// its raw ADC counts: with g = counts·scale and â = g − mean it adds sˡ
// into psd[:len(counts)], which must exist, and returns the axis mean
// and Σ(g−mean)², the moments the zero offset and the RMS feature are
// made of (by Parseval, 2K·Σ sˡ is that Σ(g−mean)²). It reads the
// counts twice (the mean; then each demeaned sample, summed squared and
// written straight to its slot of the DCT's FFT, realPlan.slot) and its
// spectrum once, allocation-free once the plan and scratch are warm.
//
// The moments are bit for bit the two-pass transform.Offsets and
// transform.RMS: the counts are summed in sample order and every
// product is rounded by an explicit float64 conversion before its add,
// which stops a compiler from fusing the multiply into it.
func AddAxisPower(psd []float64, counts []int16, scale float64) (mean, sumSq float64) {
	n := len(counts)
	if n == 0 {
		return 0, 0
	}
	for _, c := range counts {
		mean += float64(float64(c) * scale)
	}
	mean /= float64(n)
	inv := 1 / (2 * float64(n))
	if n%2 == 1 {
		return mean, addOddAxisPower(psd, counts, scale, mean, inv)
	}
	p := planReal(n)
	buf := getCBuf(p.m)
	z := buf.s
	slot := p.slot[:p.m]
	for b := 0; b < n/4; b++ {
		q := (*[4]int16)(counts[4*b:])
		d0, d1, sq := demean2(q[0], q[1], scale, mean, sumSq)
		d2, d3, sq := demean2(q[2], q[3], scale, mean, sq)
		z[slot[2*b]], z[slot[2*b+1]], sumSq = complex(d0, d2), complex(d3, d1), sq
	}
	if n%4 == 2 {
		d0, d1, sq := demean2(counts[n-2], counts[n-1], scale, mean, sumSq)
		z[slot[p.m-1]], sumSq = complex(d0, d1), sq
	}
	p.addPowerFromSlots(psd, z, inv)
	putCBuf(buf)
	return mean, sumSq
}

// demean2 returns a·scale − mean and b·scale − mean, with their squares
// added to sumSq in that order. The four samples of a block go to the
// DCT's FFT as the pairs (d0, d2) and (d3, d1), realPlan.slot's order.
func demean2(a, b int16, scale, mean, sumSq float64) (da, db, sq float64) {
	da = float64(float64(a)*scale) - mean
	sumSq += float64(da * da)
	db = float64(float64(b)*scale) - mean
	sumSq += float64(db * db)
	return da, db, sumSq
}

// addOddAxisPower is AddAxisPower's odd-length path: the demeaned
// samples at their even-odd permuted slots of an n-point complex FFT,
// then the cos/sin recombination, squared into psd. It returns
// Σ(g−mean)².
func addOddAxisPower(psd []float64, counts []int16, scale, mean, inv float64) (sumSq float64) {
	n := len(counts)
	p := planDCT(n)
	buf := getCBuf(n)
	v := buf.s
	for j, c := range counts {
		d := float64(float64(c)*scale) - mean
		sumSq += float64(d * d)
		v[makhoulIndex(j, n)] = complex(d, 0)
	}
	planBluestein(n).transform(v, false)
	c := real(v[0]) * p.scale0
	psd[0] += float64(c * c * inv)
	psd, v = psd[:n], v[:n]
	cosT, sinT := p.cosT[:n], p.sinT[:n]
	for k := 1; k < n; k++ {
		c := (float64(real(v[k])*cosT[k]) + float64(imag(v[k])*sinT[k])) * p.scaleK
		psd[k] += float64(c * c * inv)
	}
	putCBuf(buf)
	return sumSq
}

// makhoulIndex is where sample j of n sits in Makhoul's even-odd
// permutation [x0, x2, x4, ..., x5, x3, x1].
func makhoulIndex(j, n int) int {
	if j&1 == 1 {
		return n - 1 - j/2
	}
	return j / 2
}

// PeriodogramInto computes the one-sided FFT periodogram of x sampled
// at rate fs (Hz) into freq and psd (each grown if needed, returned
// resliced to len(x)/2+1): the frequency axis and the PSD estimate in
// unit²/Hz. The input is demeaned internally. The one-sided estimate
// doubles interior bins so the integral of the PSD equals the signal
// variance. The spectrum is oneSided's, so steady-state calls with
// adequate outputs are allocation-free.
func PeriodogramInto(freq, psd, x []float64, fs float64) ([]float64, []float64, error) {
	n := len(x)
	if n == 0 {
		return nil, nil, ErrEmptySignal
	}
	if !validRate(fs) {
		return nil, nil, errBadRate
	}
	half := n/2 + 1
	if cap(freq) < half {
		freq = make([]float64, half)
	}
	if cap(psd) < half {
		psd = make([]float64, half)
	}
	freq, psd = freq[:half], psd[:half]
	for k := range freq {
		freq[k] = float64(k) * fs / float64(n)
	}
	clear(psd)
	oneSided(psd, x, nil, Mean(x), 1/(fs*float64(n)))
	return freq, psd, nil
}

// oneSided adds the one-sided power spectrum of (x − mu)·w, |X[k]|²·scale
// with the interior bins doubled to fold the negative frequencies in,
// into acc[:len(x)/2+1]; w nil is no taper. An even length runs the
// real-input FFT (realFFT), an odd one the complex FFT, each on a
// cached plan over pooled scratch.
func oneSided(acc, x, w []float64, mu, scale float64) {
	n := len(x)
	half := n/2 + 1
	var cb *cbuf
	if n%2 == 0 {
		cb = getCBuf(half)
		realFFT(cb.s, x, w, mu)
	} else {
		cb = getCBuf(n)
		for i, v := range x {
			v -= mu
			if w != nil {
				v *= w[i]
			}
			cb.s[i] = complex(v, 0)
		}
		FFT(cb.s)
	}
	for k, m := range cb.s[:half] {
		p := (real(m)*real(m) + imag(m)*imag(m)) * scale
		if k != 0 && !(n%2 == 0 && k == half-1) {
			p *= 2
		}
		acc[k] += p
	}
	putCBuf(cb)
}

// errBadRate is the spectral estimators' refusal of a sampling rate
// that is not a positive finite number.
var errBadRate = errors.New("dsp: sampling rate must be positive and finite")

// validRate reports whether fs is a usable sampling rate: NaN and +Inf
// are refused with the non-positive rates.
func validRate(fs float64) bool { return fs > 0 && !math.IsInf(fs, 1) }

// BandPower integrates psd (per-Hz density on the freq axis) between lo
// and hi using the trapezoid rule.
func BandPower(freq, psd []float64, lo, hi float64) float64 {
	checkLen("BandPower", len(freq), len(psd))
	var p float64
	for i := 1; i < len(freq); i++ {
		f0, f1 := freq[i-1], freq[i]
		if f1 < lo || f0 > hi {
			continue
		}
		a, b := math.Max(f0, lo), math.Min(f1, hi)
		if b <= a {
			continue
		}
		frac := (b - a) / (f1 - f0)
		p += 0.5 * (psd[i-1] + psd[i]) * (f1 - f0) * frac
	}
	return p
}
