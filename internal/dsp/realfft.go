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

// addPowerFromSlots finishes the orthonormal DCT-II of a sequence whose
// pairs sit at their slots in z — the transform, then the split and the
// rotation — adding each coefficient's c²·inv into psd[:n]. One split
// serves four bins: k, n−k, m−k and n−m+k.
func (p *realPlan) addPowerFromSlots(psd []float64, z []complex128, inv float64) {
	n, m := p.n, p.m
	z = z[:m]
	p.transform(z, true)
	psd = psd[:n]
	c := (real(z[0]) + imag(z[0])) * p.scale0
	psd[0] += float64(c * c * inv)
	c = (real(z[0]) - imag(z[0])) * p.scale0
	psd[m] += float64(c * c * inv)
	tw, rot := p.twiddle, p.rot[:m]
	for k := 1; k < (m+1)/2; k++ {
		j := m - k
		xk, xj := split(z[k], z[j], tw[k])
		wk, wj := cmul(rot[k], xk), cmul(rot[j], xj)
		psd[k] += float64(real(wk) * real(wk) * inv)
		psd[n-k] += float64(imag(wk) * imag(wk) * inv)
		psd[j] += float64(real(wj) * real(wj) * inv)
		psd[n-j] += float64(imag(wj) * imag(wj) * inv)
	}
	if k := m / 2; m%2 == 0 && k > 0 {
		xk, _ := split(z[k], z[k], tw[k])
		wk := cmul(rot[k], xk)
		psd[k] += float64(real(wk) * real(wk) * inv)
		psd[n-k] += float64(imag(wk) * imag(wk) * inv)
	}
}
