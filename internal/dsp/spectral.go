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

// PSDDCT computes the paper's PSD feature: sˡ = (âˡ·W_K)² / (2K) per
// frequency bin, using the orthonormal DCT-II as W_K. The input is
// demeaned internally. By Parseval, sum(PSDDCT(x)) == RMS(x)² / 2·…
// more precisely sum_k s_k == ‖â‖²/(2K) · 2 = rms²/2 with the paper's
// 1/(2K) scaling; the exact identity verified in tests is
// 2·K·sum(s) == ‖â‖² · (1/K) · K, i.e. sum over bins of (dct)²/(2K)
// equals rms²/2.
func PSDDCT(x []float64) []float64 {
	return PSDDCTInto(make([]float64, len(x)), x)
}

// PSDDCTInto is PSDDCT writing into dst (grown if needed, returned
// resliced to len(x)). Steady-state calls with an adequate dst are
// allocation-free: the demeaned copy comes from the scratch pool and the
// DCT runs on a cached plan.
func PSDDCTInto(dst, x []float64) []float64 {
	k := len(x)
	if cap(dst) < k {
		dst = make([]float64, k)
	}
	dst = dst[:k]
	if k == 0 {
		return dst
	}
	buf := getFBuf(k)
	DemeanInto(buf.s, x)
	DCTInto(dst, buf.s)
	putFBuf(buf)
	inv := 1 / (2 * float64(k))
	for i, v := range dst {
		dst[i] = v * v * inv
	}
	return dst
}

// AddAxisPower is one axis of the paper's combined PSD feature, read
// straight from its raw ADC counts: with g = counts·scale it adds
// PSDDCT(g) into psd — the first len(psd) bins only, so a malformed
// record's longer axis is clipped to the combined grid — and returns
// the axis mean and Σ(g−mean)², the moments the zero offset and the RMS
// feature are made of. It reads the counts twice (the mean, then the
// demeaned samples written straight to their FFT slots) and the
// spectrum once, allocation-free once the plan and scratch are warm.
//
// Every value is bit-identical to the chain it fuses — g stored, Mean,
// DemeanInto, DCTInto, the square, the sum into psd — and to the
// two-pass RMS: each expression and each sum's order is that chain's,
// and every intermediate the chain stored to memory is rounded by an
// explicit float64 conversion, which stops a compiler from fusing a
// multiply into the add that follows it.
func AddAxisPower(psd []float64, counts []int16, scale float64) (mean, sumSq float64) {
	n := len(counts)
	if n == 0 {
		return 0, 0
	}
	var sum float64
	for _, c := range counts {
		sum += float64(float64(c) * scale)
	}
	mean = sum / float64(n)
	p := planDCT(n)
	buf := getCBuf(n)
	v := buf.s
	slot := p.slot[:n]
	for j, c := range counts {
		d := float64(float64(c)*scale) - mean
		sumSq += float64(d * d)
		v[slot[j]] = complex(d, 0)
	}
	p.transform(v)
	m := min(n, len(psd))
	inv := 1 / (2 * float64(n))
	if m > 0 {
		c := float64(real(v[0]) * p.scale0)
		psd[0] += float64(c * c * inv)
	}
	psd, v = psd[:m], v[:m]
	cosT, sinT := p.cosT[:m], p.sinT[:m]
	for k := 1; k < m; k++ {
		c := float64((real(v[k])*cosT[k] + imag(v[k])*sinT[k]) * p.scaleK)
		psd[k] += float64(c * c * inv)
	}
	putCBuf(buf)
	return mean, sumSq
}

// Periodogram computes the one-sided FFT periodogram of x sampled at
// rate fs (Hz), returning the frequency axis and PSD estimate in
// (unit²/Hz). The input is demeaned internally. The one-sided estimate
// doubles interior bins so the integral of the PSD equals the signal
// variance.
func Periodogram(x []float64, fs float64) (freq, psd []float64, err error) {
	return PeriodogramInto(nil, nil, x, fs)
}

// PeriodogramInto is Periodogram writing into freq and psd (each grown
// if needed, returned resliced to len(x)/2+1). The transform runs on a
// cached plan over pooled scratch, so steady-state calls with adequate
// outputs are allocation-free.
func PeriodogramInto(freq, psd, x []float64, fs float64) ([]float64, []float64, error) {
	n := len(x)
	if n == 0 {
		return nil, nil, ErrEmptySignal
	}
	if fs <= 0 {
		return nil, nil, errors.New("dsp: sampling rate must be positive")
	}
	half := n/2 + 1
	if cap(freq) < half {
		freq = make([]float64, half)
	}
	if cap(psd) < half {
		psd = make([]float64, half)
	}
	freq, psd = freq[:half], psd[:half]
	cb := getCBuf(n)
	spec := cb.s
	mu := Mean(x)
	for i, v := range x {
		spec[i] = complex(v-mu, 0)
	}
	FFT(spec)
	scale := 1 / (fs * float64(n))
	for k := 0; k < half; k++ {
		freq[k] = float64(k) * fs / float64(n)
		m := spec[k]
		p := (real(m)*real(m) + imag(m)*imag(m)) * scale
		if k != 0 && !(n%2 == 0 && k == half-1) {
			p *= 2 // fold the negative-frequency half in
		}
		psd[k] = p
	}
	putCBuf(cb)
	return freq, psd, nil
}

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
