package dsp

import (
	"math"
	"math/bits"
	"math/cmplx"
	"sync"
	"sync/atomic"
)

// Transform plans. Every FFT/DCT length that appears in a workload is
// seen thousands of times (one fleet samples at a handful of rates), so
// the per-length setup — bit-reversal permutations, stage twiddle
// factors, Bluestein chirp sequences and their transformed filters, DCT
// recombination tables — is computed once and cached in a
// concurrency-safe, bounded registry (planRegistry). Plans are immutable
// after construction.

// fftPlan caches the setup of a Cooley-Tukey transform of one
// power-of-two length.
type fftPlan struct {
	n     int
	swaps []int32      // bit-reversal swap pairs (i, j) with i < j, flattened
	fwd   []complex128 // stage twiddles e^{-iπk/half}, packed by stage at offset half-1
	inv   []complex128 // conjugate twiddles for the inverse transform
}

func newFFTPlan(n int) *fftPlan {
	p := &fftPlan{n: n}
	shift := 64 - uint(bits.TrailingZeros(uint(n)))
	for i := 0; i < n; i++ {
		if j := int(bits.Reverse64(uint64(i)) >> shift); j > i {
			p.swaps = append(p.swaps, int32(i), int32(j))
		}
	}
	p.fwd = make([]complex128, n-1)
	p.inv = make([]complex128, n-1)
	for half := 1; half < n; half <<= 1 {
		base := half - 1
		for k := 0; k < half; k++ {
			ang := math.Pi * float64(k) / float64(half)
			p.fwd[base+k] = cmplx.Exp(complex(0, -ang))
			p.inv[base+k] = cmplx.Exp(complex(0, ang))
		}
	}
	return p
}

// transform runs the in-place transform: the bit-reversal swaps, then
// the butterflies. Normalization of the inverse is the caller's
// responsibility.
func (p *fftPlan) transform(x []complex128, inverse bool) {
	for s := 0; s < len(p.swaps); s += 2 {
		i, j := p.swaps[s], p.swaps[s+1]
		x[i], x[j] = x[j], x[i]
	}
	p.butterflies(x, inverse)
}

// butterflies runs the transform's stages over x already in
// bit-reversed order — what a caller that wrote each sample straight to
// its reversed slot (realPlan.slot) skips the swap pass with. Stages are
// executed in fused pairs (radix-4): each 4-point group stays in
// registers across two butterfly levels and the upper stage's
// second-half twiddle is derived from the first by an exact ∓i
// rotation, saving one complex multiply per group and half the
// loads/stores of the plain radix-2 sweep. An odd stage count peels the
// twiddle-free first stage; the first pair of an even count is a plain
// 4-point DFT. Every other pair is fusedStage: the AVX2 kernel where
// the CPU runs it (stage_amd64.s), fusedStageGo otherwise, to the same
// bits.
func (p *fftPlan) butterflies(x []complex128, inverse bool) {
	n := p.n
	tw := p.fwd
	if inverse {
		tw = p.inv
	}
	// si applies the exact ∓i rotation t2[k+h] == t2[k]·(∓i) without a
	// branch in the inner loops.
	si := -1.0
	if inverse {
		si = 1.0
	}
	size := 2
	if bits.TrailingZeros(uint(n))&1 == 1 {
		// Odd stage count: peel the twiddle-free first stage so the
		// remaining stages pair up.
		for start := 0; start < n; start += 2 {
			a, b := x[start], x[start+1]
			x[start], x[start+1] = a+b, a-b
		}
		size = 4
	} else if n >= 4 {
		// The first fused pair (stages 2 and 4) has all-trivial twiddles:
		// it is a plain 4-point DFT per contiguous group. Specializing it
		// drops three complex multiplies per group.
		for start := 0; start+4 <= n; start += 4 {
			a, b, c, d := x[start], x[start+1], x[start+2], x[start+3]
			a1, b1 := a+b, a-b
			c1, d1 := c+d, c-d
			q := complex(float64(-si*imag(d1)), float64(si*real(d1)))
			x[start] = a1 + c1
			x[start+2] = a1 - c1
			x[start+1] = b1 + q
			x[start+3] = b1 - q
		}
		size = 8
	}
	for ; size <= n/2; size <<= 2 {
		h := size >> 1
		fusedStage(x, tw[h-1:2*h-1:2*h-1], tw[2*h-1:3*h-1:3*h-1], si)
	}
}

// fusedStageAsm is the assembly fused stage, set at package init where
// the CPU runs it (stage_amd64.go) and nil elsewhere.
var fusedStageAsm func(x, t1, t2 []complex128, si float64)

// fusedStage runs one fused pair of stages, of quarter-size h =
// len(t1), over x.
func fusedStage(x, t1, t2 []complex128, si float64) {
	if fusedStageAsm != nil {
		fusedStageAsm(x, t1, t2, si)
		return
	}
	fusedStageGo(x, t1, t2, si)
}

// fusedStageGo is the portable fused stage: for each group of 4h
// samples at start and each k < h, with quarters s0…s3 and twiddles
// w1 = t1[k] (the lower stage) and w2 = t2[k] (the upper),
//
//	a1, b1 = s0 ± w1·s1     c1, d1 = s2 ± w1·s3
//	s0, s2 = a1 ± w2·c1     s1, s3 = b1 ± (∓i)·w2·d1
//
// with si = −1 forward (the rotation −i) and +1 inverse. Every product
// is rounded before its add (cmul), so the stage has one set of bits on
// every target and equals the AVX2 kernel's.
func fusedStageGo(x, t1, t2 []complex128, si float64) {
	h := len(t1)
	n := len(x)
	t2 = t2[:h:h] // one bounds check here instead of one per k
	for start := 0; start < n; start += 4 * h {
		s0 := x[start : start+h : start+h]
		s1 := x[start+h : start+2*h : start+2*h]
		s2 := x[start+2*h : start+3*h : start+3*h]
		s3 := x[start+3*h : start+4*h : start+4*h]
		for k := range s0 {
			a, c := s0[k], s2[k]
			bt, dt := cmul(s1[k], t1[k]), cmul(s3[k], t1[k])
			a1, b1 := a+bt, a-bt
			c1, d1 := c+dt, c-dt
			u, q := cmul(c1, t2[k]), cmul(d1, t2[k])
			q = complex(float64(-si*imag(q)), float64(si*real(q)))
			s0[k], s2[k] = a1+u, a1-u
			s1[k], s3[k] = b1+q, b1-q
		}
	}
}

// cmul is a·b as Go's complex multiply computes it, re = ar·br − ai·bi
// and im = ar·bi + ai·br, with every product rounded by an explicit
// float64(…) before its add: Go lets a compiler fuse x*y + z (arm64
// does), which would give the transform other bits on such a target.
func cmul(a, b complex128) complex128 {
	ar, ai, br, bi := real(a), imag(a), real(b), imag(b)
	return complex(float64(ar*br)-float64(ai*bi), float64(ar*bi)+float64(ai*br))
}

// bluesteinPlan caches the chirp sequences and the pre-transformed
// convolution filter of an arbitrary-length chirp-z transform, for both
// directions, plus the power-of-two sub-plan the convolution runs on.
type bluesteinPlan struct {
	n, m       int
	wFwd, wInv []complex128 // chirp e^{∓iπk²/n}
	bFwd, bInv []complex128 // FFT of the chirp filter, per direction
	sub        *fftPlan
}

func newBluesteinPlan(n int) *bluesteinPlan {
	m := 1
	for m < 2*n-1 {
		m <<= 1
	}
	p := &bluesteinPlan{n: n, m: m, sub: planFFT(m)}
	p.wFwd = make([]complex128, n)
	p.wInv = make([]complex128, n)
	for k := 0; k < n; k++ {
		// k² may overflow for very large n if done naively; reduce on 2n
		// to keep the angle exact.
		kk := (int64(k) * int64(k)) % int64(2*n)
		ang := math.Pi * float64(kk) / float64(n)
		p.wFwd[k] = cmplx.Exp(complex(0, -ang))
		p.wInv[k] = cmplx.Exp(complex(0, ang))
	}
	p.bFwd = transformedChirpFilter(p.wFwd, n, m, p.sub)
	p.bInv = transformedChirpFilter(p.wInv, n, m, p.sub)
	return p
}

// transformedChirpFilter builds b[k] = conj(w[k]) mirrored around m and
// returns its forward FFT — the fixed convolution filter of Bluestein's
// algorithm.
func transformedChirpFilter(w []complex128, n, m int, sub *fftPlan) []complex128 {
	b := make([]complex128, m)
	for k := 0; k < n; k++ {
		b[k] = cmplx.Conj(w[k])
	}
	for k := 1; k < n; k++ {
		b[m-k] = cmplx.Conj(w[k])
	}
	sub.transform(b, false)
	return b
}

// transform evaluates the length-n DFT of x as a convolution on the
// cached power-of-two sub-plan, using pooled scratch. Normalization of
// the inverse is the caller's responsibility.
func (p *bluesteinPlan) transform(x []complex128, inverse bool) {
	w, bf := p.wFwd, p.bFwd
	if inverse {
		w, bf = p.wInv, p.bInv
	}
	buf := getCBuf(p.m)
	a := buf.s
	for k := 0; k < p.n; k++ {
		a[k] = cmul(x[k], w[k])
	}
	for k := p.n; k < p.m; k++ {
		a[k] = 0
	}
	p.sub.transform(a, false)
	for i := range a {
		a[i] = cmul(a[i], bf[i])
	}
	p.sub.transform(a, true)
	scale := complex(1/float64(p.m), 0)
	for k := 0; k < p.n; k++ {
		x[k] = cmul(cmul(a[k], scale), w[k])
	}
	putCBuf(buf)
}

// dctPlan caches the post-FFT recombination tables of the orthonormal
// DCT-II of one odd length (Makhoul's even-odd permutation method), the
// tables addOddAxisPower reads; an even length runs on its realPlan.
type dctPlan struct {
	cosT, sinT []float64 // cos/sin(πk/(2n))
	scale0     float64   // √(1/n)
	scaleK     float64   // √(2/n)
}

func newDCTPlan(n int) *dctPlan {
	p := &dctPlan{
		cosT:   make([]float64, n),
		sinT:   make([]float64, n),
		scale0: math.Sqrt(1 / float64(n)),
		scaleK: math.Sqrt(2 / float64(n)),
	}
	for k := 0; k < n; k++ {
		ang := math.Pi * float64(k) / (2 * float64(n))
		p.cosT[k] = math.Cos(ang)
		p.sinT[k] = math.Sin(ang)
	}
	return p
}

// maxCachedPlans caps how many distinct lengths each registry keeps.
// A fleet samples at a handful of rates, so a workload's lengths fit
// several times over. The cap exists because the length is the client's
// per-axis sample count: a Bluestein plan holds 100-160 bytes per
// sample (~12 MB at 100k samples, ~100 MB at the codec's 1Mi-sample
// limit), and without a cap a client walking through lengths pins
// memory without bound. With it the worst case is maxCachedPlans plans
// of the largest accepted length.
const maxCachedPlans = 32

// planRegistry caches one immutable plan per key (a length; a rate and
// a length for the frequency axes), for the first maxCachedPlans
// distinct keys it sees. Past that a miss builds a one-off plan and
// does not keep it: correct, only slower. A hit is one lock-free
// sync.Map load; a racing first use at worst builds the same plan twice
// and keeps one.
type planRegistry[K comparable, T any] struct {
	plans sync.Map // K -> T
	slots atomic.Int32
}

func (r *planRegistry[K, T]) get(n K, build func(K) T) T {
	if v, ok := r.cached(n, build); ok {
		return v
	}
	return build(n)
}

// cached returns n's entry, building and keeping it on a miss while
// the registry has a free slot; ok is false when the registry is full
// and n is not in it.
func (r *planRegistry[K, T]) cached(n K, build func(K) T) (T, bool) {
	if v, ok := r.plans.Load(n); ok {
		return v.(T), true
	}
	// Reserve a slot before storing, so concurrent misses cannot carry
	// the registry past the cap.
	if r.slots.Add(1) > maxCachedPlans {
		r.slots.Add(-1)
		var none T
		return none, false
	}
	v, loaded := r.plans.LoadOrStore(n, build(n))
	if loaded {
		r.slots.Add(-1)
	}
	return v.(T), true
}

var (
	fftPlans        planRegistry[int, *fftPlan]
	bluesteinPlans  planRegistry[int, *bluesteinPlan]
	dctPlans        planRegistry[int, *dctPlan]
	realPlans       planRegistry[int, *realPlan]
	hannPlans       planRegistry[int, []float64] // shared, read-only
	hannSmoothPlans planRegistry[int, *hannSmooth]
	axisPlans       planRegistry[axisKey, []float64] // shared, read-only
)

func planFFT(n int) *fftPlan { return fftPlans.get(n, newFFTPlan) }

func planBluestein(n int) *bluesteinPlan { return bluesteinPlans.get(n, newBluesteinPlan) }

func planDCT(n int) *dctPlan { return dctPlans.get(n, newDCTPlan) }

func planReal(n int) *realPlan { return realPlans.get(n, newRealPlan) }

// hannCached returns a shared, read-only Hann window of length n.
// Callers must not modify it; use HannWindow for a private copy.
func hannCached(n int) []float64 { return hannPlans.get(n, HannWindow) }

// maxCachedAxis is the longest frequency axis DCTAxisInto keeps: a
// record may carry up to 1 Mi samples an axis, and a registry of 32 such
// axes would pin 256 MiB; at 64 Ki bins it pins at most 16 MiB.
const maxCachedAxis = 1 << 16

// axisKey names one DCT frequency axis: the sample rate's bits (so
// every rate, NaN and −0 included, is its own key) and the bin count.
type axisKey struct {
	rate uint64
	k    int
}

// DCTAxisInto writes the frequency axis of a k-bin DCT spectrum of a
// capture sampled at rate Hz into freq (grown if its capacity is short,
// returned resliced to k): bin i sits at i·rate/(2k), computed as
// float64(i) * rate / (2 * float64(k)). A fleet samples at a handful of
// rates, so the axis is built once per (rate, k) in a bounded registry
// and copied. Past the registry's cap, or past maxCachedAxis bins, it
// is computed in place, to the same bits.
func DCTAxisInto(freq []float64, rate float64, k int) []float64 {
	if cap(freq) < k {
		freq = make([]float64, k)
	}
	freq = freq[:k]
	if k <= maxCachedAxis {
		key := axisKey{rate: math.Float64bits(rate), k: k}
		if axis, ok := axisPlans.cached(key, newDCTAxis); ok {
			copy(freq, axis)
			return freq
		}
	}
	dctAxis(freq, rate)
	return freq
}

func newDCTAxis(key axisKey) []float64 {
	axis := make([]float64, key.k)
	dctAxis(axis, math.Float64frombits(key.rate))
	return axis
}

// dctAxis fills freq with the bin frequencies of a len(freq)-bin DCT
// spectrum at rate Hz.
func dctAxis(freq []float64, rate float64) {
	k := len(freq)
	for i := range freq {
		freq[i] = float64(i) * rate / (2 * float64(k))
	}
}
