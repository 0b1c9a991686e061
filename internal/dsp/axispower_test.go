package dsp

import (
	"math"
	"math/rand"
	"strconv"
	"testing"
	"testing/quick"
)

// The DCT power kernel, addAxisPower, against the O(n²) orthonormal
// DCT-II of its definition: sˡ = (âˡ·W_K)²/(2K) of â = g − mean,
// g = counts·scale.

// naiveDCT2 is the O(n²) orthonormal DCT-II reference.
func naiveDCT2(x []float64) []float64 {
	n := len(x)
	out := make([]float64, n)
	for k := 0; k < n; k++ {
		var s float64
		for i := 0; i < n; i++ {
			s += x[i] * math.Cos(math.Pi*float64(k)*(2*float64(i)+1)/(2*float64(n)))
		}
		scale := math.Sqrt(2 / float64(n))
		if k == 0 {
			scale = math.Sqrt(1 / float64(n))
		}
		out[k] = s * scale
	}
	return out
}

// countsG is the axis in g that addAxisPower reads: counts·scale.
func countsG(counts []int16, scale float64) []float64 {
	g := make([]float64, len(counts))
	for i, c := range counts {
		g[i] = float64(c) * scale
	}
	return g
}

// naivePower is addAxisPower's spectrum by definition: naiveDCT2 of the
// demeaned axis, each coefficient squared and scaled by 1/(2K).
func naivePower(counts []int16, scale float64) []float64 {
	c := naiveDCT2(Demean(countsG(counts, scale)))
	for k, v := range c {
		c[k] = v * v / (2 * float64(len(c)))
	}
	return c
}

// axisPower is addAxisPower into a fresh spectrum.
func axisPower(counts []int16, scale float64) (psd []float64, mean, sumSq float64) {
	psd = make([]float64, len(counts))
	mean, sumSq = addAxisPower(psd, counts, scale)
	return psd, mean, sumSq
}

// randomCounts is n ADC counts of a noisy axis with a gravity offset.
func randomCounts(rng *rand.Rand, n int) []int16 {
	c := make([]int16, n)
	for i := range c {
		c[i] = int16(256 + 900*rng.NormFloat64())
	}
	return c
}

// adcScale is the g per count the tests convert at, the MEMS range's.
const adcScale = 0.0039

// naiveBound is how far a bin may sit from naivePower's, as a share of
// the total power. It is looser than realBound because the reference
// itself rounds: its cosine arguments πk(2i+1)/(2K) reach ~3e3 rad at
// K = 1,024, each carrying an absolute error near 1e-13.
const naiveBound = 1e-10

// axisLengths are addAxisPower's length classes: empty, one sample, the
// smallest even and odd, primes (odd: Bluestein's K-point FFT), K ≡ 2
// (mod 4) (the slot table's closing pair), powers of two (the
// butterflies on bit-reversed slots) and even lengths whose half is not
// a power of two (a Bluestein half).
var axisLengths = []int{0, 1, 2, 3, 7, 127, 1021, 6, 10, 18, 1022, 4, 8, 64, 1024, 12, 20, 100, 1000}

// checkNaivePower fails t unless addAxisPower of counts is within
// naiveBound of the total power of naivePower per bin.
func checkNaivePower(t *testing.T, name string, counts []int16) {
	t.Helper()
	got, _, _ := axisPower(counts, adcScale)
	want := naivePower(counts, adcScale)
	checkBound(t, name, got, want, sum(want), naiveBound)
}

func TestDCTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range axisLengths {
		checkNaivePower(t, "n="+strconv.Itoa(n), randomCounts(rng, n))
	}
}

// checkParseval fails t unless 2K·Σ bins equals the returned Σ(g−mean)²
// within a relative 1e-12.
func checkParseval(t *testing.T, name string, counts []int16) {
	t.Helper()
	psd, _, sumSq := axisPower(counts, adcScale)
	e := 2 * float64(len(counts)) * sum(psd)
	if math.Abs(e-sumSq) > 1e-12*sumSq {
		t.Fatalf("%s: 2K·Σ bins %.17g, Σ(g−mean)² %.17g", name, e, sumSq)
	}
}

// TestDCTParseval: the orthonormal DCT preserves energy, so the bins
// of addAxisPower sum to the Σ(g−mean)² it returns over 2K — the
// identity the paper uses to show rms² equals the sum of the PSD
// feature.
func TestDCTParseval(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range axisLengths {
		checkParseval(t, "n="+strconv.Itoa(n), randomCounts(rng, n))
	}
}

// TestDCTConstantSignal: a constant axis is all offset, so every bin,
// DC included, holds zero power. The scale is a power of two, so the
// mean of the constant is exact and so is each demeaned zero.
func TestDCTConstantSignal(t *testing.T) {
	for _, n := range axisLengths {
		counts := make([]int16, n)
		for i := range counts {
			counts[i] = 1000
		}
		psd, mean, sumSq := axisPower(counts, 1.0/256)
		if n > 0 && mean != 1000.0/256 {
			t.Fatalf("n=%d: mean %v, want %v", n, mean, 1000.0/256)
		}
		if sumSq != 0 {
			t.Fatalf("n=%d: Σ(g−mean)² %g, want 0", n, sumSq)
		}
		for k, v := range psd {
			if v != 0 {
				t.Fatalf("n=%d bin %d: %g, want 0", n, k, v)
			}
		}
	}
}

// TestDCTEmptyAndSingle: an empty axis adds nothing and reports zero
// moments; one sample is its own mean and adds zero power.
func TestDCTEmptyAndSingle(t *testing.T) {
	if mean, sumSq := addAxisPower(nil, nil, adcScale); mean != 0 || sumSq != 0 {
		t.Fatalf("empty axis: mean %g, Σ(g−mean)² %g", mean, sumSq)
	}
	psd := []float64{0.25}
	mean, sumSq := addAxisPower(psd, []int16{-512}, 1.0/256)
	if mean != -2 || sumSq != 0 || psd[0] != 0.25 {
		t.Fatalf("one sample: mean %g, Σ(g−mean)² %g, bin %g (want -2, 0, 0.25 kept)", mean, sumSq, psd[0])
	}
}

// TestDCTParsevalProperty is TestDCTParseval over random counts of
// random lengths up to 256.
func TestDCTParsevalProperty(t *testing.T) {
	f := func(counts []int16) bool {
		if len(counts) > 256 {
			counts = counts[:256]
		}
		psd, _, sumSq := axisPower(counts, adcScale)
		e := 2 * float64(len(counts)) * sum(psd)
		return math.Abs(e-sumSq) <= 1e-12*sumSq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
