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
		s += float64(v * v)
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
		s += float64(d * d)
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }

// RecordPower is the paper's PSD feature of one record,
// s = Σ_{l∈{x,y,z}} (âˡ·W_K)²/(2K) with W_K the orthonormal DCT-II,
// read straight from the three axes' raw ADC counts: with
// gˡ = countsˡ·scale and âˡ = gˡ − meanˡ it writes s into psd[:K], K
// the longest axis (psd must hold that many), and returns each axis's
// mean and Σ(gˡ−meanˡ)², the moments the zero offsets and the RMS
// feature are made of (by Parseval, 2K·Σ sˡ is that Σ(gˡ−meanˡ)²). An
// empty axis adds nothing and reports zero moments.
//
// Three axes of one even length — every well-formed record — take four
// passes: the three means in one loop; one demean pass that sums each
// axis's squares and writes each demeaned sample straight to its slot
// of that axis's K/2-point FFT (realPlan.slot); the three transforms;
// and one split/rotation/power pass that writes each bin once. The
// demean and power passes are AVX2 kernels where the CPU runs them
// (stage_amd64.s) and Go loops otherwise, to the same bits. An odd
// length, or axes of unequal lengths, take addAxisPower per axis into
// a cleared psd. It is allocation-free once the plan and scratch are
// warm.
//
// Every path gives the same bits: each axis's sums run in sample
// order, every product is rounded by an explicit float64 conversion
// before its add (which stops a compiler from fusing the multiply into
// it), and a bin is (0 + sˣ) + sʸ + sᶻ, the axes in order, exactly as
// three addAxisPower calls into a zeroed psd make it. The moments are
// bit for bit the two-pass transform.Offsets and transform.RMS.
func RecordPower(psd []float64, axes *[3][]int16, scale float64) (mean, sumSq [3]float64) {
	n := len(axes[0])
	if n%2 == 1 || len(axes[1]) != n || len(axes[2]) != n {
		clear(psd[:max(n, len(axes[1]), len(axes[2]))])
		for l, counts := range axes {
			mean[l], sumSq[l] = addAxisPower(psd, counts, scale)
		}
		return mean, sumSq
	}
	if n == 0 {
		return mean, sumSq
	}
	x, y, z := axes[0], axes[1][:n], axes[2][:n]
	var mx, my, mz float64
	for i, c := range x {
		mx += float64(float64(c) * scale)
		my += float64(float64(y[i]) * scale)
		mz += float64(float64(z[i]) * scale)
	}
	mean = [3]float64{mx / float64(n), my / float64(n), mz / float64(n)}
	p := planReal(n)
	bx, by, bz := getCBuf(p.m), getCBuf(p.m), getCBuf(p.m)
	zx, zy, zz := bx.s, by.s, bz.s
	demean := demeanScatterGo
	if recordDemeanAsm != nil {
		demean = recordDemeanAsm
	}
	sx, sy, sz := demean(zx, zy, zz, x, y, z, p.slot[:n/4*2], scale, mean[0], mean[1], mean[2])
	if n%4 == 2 {
		s := p.slot[p.m-1]
		var d0, d1 float64
		d0, d1, sx = demean2(x[n-2], x[n-1], scale, mean[0], sx)
		zx[s] = complex(d0, d1)
		d0, d1, sy = demean2(y[n-2], y[n-1], scale, mean[1], sy)
		zy[s] = complex(d0, d1)
		d0, d1, sz = demean2(z[n-2], z[n-1], scale, mean[2], sz)
		zz[s] = complex(d0, d1)
	}
	p.transform(zx, true)
	p.transform(zy, true)
	p.transform(zz, true)
	p.recordPowerFromSlots(psd, zx, zy, zz, 1/(2*float64(n)))
	putCBuf(bx)
	putCBuf(by)
	putCBuf(bz)
	return mean, [3]float64{sx, sy, sz}
}

// recordDemeanAsm and recordPowerAsm are the assembly demean and power
// passes, set at package init where the CPU runs them
// (stage_amd64.go) and nil elsewhere.
var (
	recordDemeanAsm func(zx, zy, zz []complex128, x, y, z []int16, slot []int32, scale, mx, my, mz float64) (sx, sy, sz float64)
	recordPowerAsm  func(psd []float64, zx, zy, zz, tw, rot []complex128, inv float64, count int)
)

// demeanScatterGo is RecordPower's demean pass over the len(slot)/2
// four-sample blocks of the axes x, y and z, whose means are mx, my
// and mz: each sample becomes g − mean, its square is added to its
// axis's Σ(g−mean)² in sample order, and each block's pairs (d0, d2)
// and (d3, d1) go to its slots of the axis's FFT input zx, zy or zz.
// It returns the three sums.
func demeanScatterGo(zx, zy, zz []complex128, x, y, z []int16, slot []int32, scale, mx, my, mz float64) (sx, sy, sz float64) {
	for b := 0; b < len(slot)/2; b++ {
		s0, s1 := slot[2*b], slot[2*b+1]
		qx, qy, qz := (*[4]int16)(x[4*b:]), (*[4]int16)(y[4*b:]), (*[4]int16)(z[4*b:])
		var x0, x1, x2, x3, y0, y1, y2, y3, z0, z1, z2, z3 float64
		x0, x1, sx = demean2(qx[0], qx[1], scale, mx, sx)
		y0, y1, sy = demean2(qy[0], qy[1], scale, my, sy)
		z0, z1, sz = demean2(qz[0], qz[1], scale, mz, sz)
		x2, x3, sx = demean2(qx[2], qx[3], scale, mx, sx)
		y2, y3, sy = demean2(qy[2], qy[3], scale, my, sy)
		z2, z3, sz = demean2(qz[2], qz[3], scale, mz, sz)
		zx[s0], zx[s1] = complex(x0, x2), complex(x3, x1)
		zy[s0], zy[s1] = complex(y0, y2), complex(y3, y1)
		zz[s0], zz[s1] = complex(z0, z2), complex(z3, z1)
	}
	return sx, sy, sz
}

// addAxisPower is one axis of RecordPower: it adds sˡ into
// psd[:len(counts)], which must exist, and returns the axis mean and
// Σ(g−mean)². It reads the counts twice (the mean; then each demeaned
// sample, summed squared and written straight to its slot of the DCT's
// FFT, realPlan.slot) and its spectrum once.
func addAxisPower(psd []float64, counts []int16, scale float64) (mean, sumSq float64) {
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

// addOddAxisPower is addAxisPower's odd-length path: the demeaned
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
		p := float64((float64(real(m)*real(m)) + float64(imag(m)*imag(m))) * scale)
		if k != 0 && !(n%2 == 0 && k == half-1) {
			p = float64(p * 2)
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
		p += float64(0.5 * (psd[i-1] + psd[i]) * (f1 - f0) * frac)
	}
	return p
}
