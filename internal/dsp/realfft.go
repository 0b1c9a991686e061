package dsp

import (
	"math"
	"math/bits"
)

// Real-input transforms. A length-n DFT of real samples is conjugate
// symmetric, so half of a complex FFT's work recomputes values the other
// half fixes. For an even n the samples are paired into an n/2-point
// complex sequence z[p] = x[2p] + i·x[2p+1], transformed with the
// butterflies (n/2 a power of two) or Bluestein (otherwise), and one
// split pass separates the two interleaved spectra:
//
//	X[k] = ½(Z[k] + Z*[n/2−k]) − ½i·e^{−2πik/n}·(Z[k] − Z*[n/2−k]),  k = 0…n/2
//
// Odd lengths keep the complex path.

// realPlan caches the setup of the real-input transforms of one even
// length n: the n/2-point complex plan, the split twiddles, and for the
// DCT-II the input slots and the rotation.
type realPlan struct {
	n, m int            // n even, m = n/2
	fft  *fftPlan       // the m-point plan when m is a power of two
	blu  *bluesteinPlan // the m-point chirp-z plan otherwise (nil for m = 1)
	// twiddle[k] = −i·e^{−2πik/n}, k = 0…m/2: the split's weight of the
	// odd-indexed samples' spectrum (see split).
	twiddle []complex128
	// slot holds, per 4-sample block b of the DCT input, the complex
	// slots of (x[4b], x[4b+2]) and (x[4b+3], x[4b+1]), then for
	// n ≡ 2 (mod 4) the slot of (x[n−2], x[n−1]): Makhoul's even-odd
	// permutation v = [x0, x2, …, x3, x1], v paired into (re, im), and
	// for a power-of-two m the bit reversal, so the DCT runs the
	// butterflies alone.
	slot []int32
	// rot[k] = e^{−iπk/(2n)}/√(2n), k = 1…m−1: the DCT rotation, scaled
	// so that W = rot[k]·V for V = 2·X[k] gives the orthonormal
	// coefficients C[k] = Re W and C[n−k] = −Im W.
	rot    []complex128
	scale0 float64 // √(1/n), the DC and Nyquist coefficients' scale
}

func newRealPlan(n int) *realPlan {
	m := n / 2
	p := &realPlan{n: n, m: m, scale0: math.Sqrt(1 / float64(n))}
	pow2 := m&(m-1) == 0
	switch {
	case m == 1:
	case pow2:
		p.fft = planFFT(m)
	default:
		p.blu = planBluestein(m)
	}
	p.twiddle = make([]complex128, m/2+1)
	for k := range p.twiddle {
		s, c := math.Sincos(2 * math.Pi * float64(k) / float64(n))
		p.twiddle[k] = complex(-s, -c)
	}
	shift := 64 - uint(bits.TrailingZeros(uint(m)))
	at := func(pair int) int32 {
		if pow2 && m > 1 {
			pair = int(bits.Reverse64(uint64(pair)) >> shift)
		}
		return int32(pair)
	}
	p.slot = make([]int32, 0, m)
	for b := 0; b < n/4; b++ {
		p.slot = append(p.slot, at(b), at(m-1-b))
	}
	if n%4 == 2 {
		p.slot = append(p.slot, at((m-1)/2))
	}
	h := 1 / math.Sqrt(2*float64(n))
	p.rot = make([]complex128, m)
	for k := 1; k < m; k++ {
		s, c := math.Sincos(math.Pi * float64(k) / (2 * float64(n)))
		p.rot[k] = complex(h*c, -h*s)
	}
	return p
}

// transform runs the m-point forward FFT of z, in natural order unless
// reversed says its pairs already sit at their bit-reversed slots.
func (p *realPlan) transform(z []complex128, reversed bool) {
	switch {
	case p.fft != nil && reversed:
		p.fft.butterflies(z, false)
	case p.fft != nil:
		p.fft.transform(z, false)
	case p.blu != nil:
		p.blu.transform(z, false)
	}
}

// split returns twice bins k and m−k of the real transform from
// a = Z[k] and b = Z[m−k] of the paired sequence's spectrum, with
// w = −i·e^{−2πik/n}: for E = a + b* and G = w·(a − b*),
// 2·X[k] = E + G and 2·X[m−k] = (E − G)*.
func split(a, b, w complex128) (xk, xj complex128) {
	er, ei := real(a)+real(b), imag(a)-imag(b)
	dr, di := real(a)-real(b), imag(a)+imag(b)
	g := cmul(w, complex(dr, di))
	gr, gi := real(g), imag(g)
	return complex(er+gr, ei+gi), complex(er-gr, gi-ei)
}

// realFFT writes bins 0…n/2 of the DFT of (x − mu)·w, for an even
// len(x) = n ≥ 2, into z[:n/2+1]; z must hold at least that many. A
// nil w is no taper.
func realFFT(z []complex128, x, w []float64, mu float64) {
	p := planReal(len(x))
	m := p.m
	if w == nil {
		for j := 0; j < m; j++ {
			z[j] = complex(x[2*j]-mu, x[2*j+1]-mu)
		}
	} else {
		for j := 0; j < m; j++ {
			z[j] = complex((x[2*j]-mu)*w[2*j], (x[2*j+1]-mu)*w[2*j+1])
		}
	}
	p.transform(z[:m], false)
	z0 := z[0]
	z[0] = complex(real(z0)+imag(z0), 0)
	z[m] = complex(real(z0)-imag(z0), 0)
	tw := p.twiddle
	for k := 1; k <= m/2; k++ {
		xk, xj := split(z[k], z[m-k], tw[k])
		// Halved part by part: a complex division is a runtime call.
		z[k] = complex(real(xk)*0.5, imag(xk)*0.5)
		z[m-k] = complex(real(xj)*0.5, imag(xj)*0.5)
	}
}

// addPowerFromSlots finishes the orthonormal DCT-II of one axis whose
// pairs sit at their slots in z — the transform, then the split and
// the rotation — adding each coefficient's c²·inv into psd[:n]. One
// split serves four bins: k, n−k, m−k and n−m+k.
func (p *realPlan) addPowerFromSlots(psd []float64, z []complex128, inv float64) {
	n, m := p.n, p.m
	z = z[:m]
	p.transform(z, true)
	psd = psd[:n]
	p0, pm := p.edgePower(z, inv)
	psd[0] += p0
	psd[m] += pm
	for k := 1; k < (m+1)/2; k++ {
		pk, pnk, pj, pnj := p.slotPower(z, k, inv)
		psd[k] += pk
		psd[n-k] += pnk
		psd[m-k] += pj
		psd[n-m+k] += pnj
	}
	if k := m / 2; m%2 == 0 && k > 0 {
		pk, pnk, _, _ := p.slotPower(z, k, inv)
		psd[k] += pk
		psd[n-k] += pnk
	}
}

// recordPowerFromSlots is addPowerFromSlots for three transformed axes
// at once, writing psd[:n] rather than adding to it: each bin is
// (sˣ + sʸ) + sᶻ, the bits three adds into a zeroed psd give. The bins
// k, n−k, m−k and n−m+k for k = 1 … ⌈m/2⌉−1 run on the AVX2 kernel
// where the CPU runs it, two k at a time, and recordPowerGo otherwise;
// the odd k left and the edge and middle bins run in Go.
func (p *realPlan) recordPowerFromSlots(psd []float64, zx, zy, zz []complex128, inv float64) {
	n, m := p.n, p.m
	psd = psd[:n]
	x0, xm := p.edgePower(zx, inv)
	y0, ym := p.edgePower(zy, inv)
	z0, zm := p.edgePower(zz, inv)
	psd[0], psd[m] = x0+y0+z0, xm+ym+zm
	k := 1
	if recordPowerAsm != nil {
		count := ((m+1)/2 - 1) &^ 1
		recordPowerAsm(psd, zx, zy, zz, p.twiddle, p.rot, inv, count)
		k += count
	}
	p.recordPowerGo(psd, zx, zy, zz, inv, k, (m+1)/2)
	if k := m / 2; m%2 == 0 && k > 0 {
		xk, xnk, _, _ := p.slotPower(zx, k, inv)
		yk, ynk, _, _ := p.slotPower(zy, k, inv)
		zk, znk, _, _ := p.slotPower(zz, k, inv)
		psd[k], psd[n-k] = xk+yk+zk, xnk+ynk+znk
	}
}

// recordPowerGo is the portable power pass: bins k, n−k, m−k and
// n−m+k of the three axes for k in [lo, hi).
func (p *realPlan) recordPowerGo(psd []float64, zx, zy, zz []complex128, inv float64, lo, hi int) {
	n, m := p.n, p.m
	for k := lo; k < hi; k++ {
		xk, xnk, xj, xnj := p.slotPower(zx, k, inv)
		yk, ynk, yj, ynj := p.slotPower(zy, k, inv)
		zk, znk, zj, znj := p.slotPower(zz, k, inv)
		psd[k], psd[n-k] = xk+yk+zk, xnk+ynk+znk
		psd[m-k], psd[n-m+k] = xj+yj+zj, xnj+ynj+znj
	}
}

// edgePower returns the power c²·inv of bins 0 and m of the DCT whose
// transformed pairs are z.
func (p *realPlan) edgePower(z []complex128, inv float64) (p0, pm float64) {
	c := (real(z[0]) + imag(z[0])) * p.scale0
	d := (real(z[0]) - imag(z[0])) * p.scale0
	return float64(c * c * inv), float64(d * d * inv)
}

// slotPower returns the power c²·inv of bins k, n−k, j = m−k and n−j of
// the DCT whose transformed pairs are z: one split of Z[k] and Z[j],
// then each half rotated.
func (p *realPlan) slotPower(z []complex128, k int, inv float64) (pk, pnk, pj, pnj float64) {
	j := p.m - k
	xk, xj := split(z[k], z[j], p.twiddle[k])
	wk, wj := cmul(p.rot[k], xk), cmul(p.rot[j], xj)
	return float64(real(wk) * real(wk) * inv), float64(imag(wk) * imag(wk) * inv),
		float64(real(wj) * real(wj) * inv), float64(imag(wj) * imag(wj) * inv)
}
