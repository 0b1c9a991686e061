package dsp

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// planLengths sweeps the classes the plan cache dispatches on: powers
// of two (radix-2/4 kernel), odd composites and primes (Bluestein), and
// the even-but-not-pow2 sizes Bluestein also owns.
var planLengths = []int{
	2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, // powers of two
	3, 5, 7, 11, 13, 127, 251, 509, 1021, // primes
	9, 15, 33, 45, 99, 625, // odd composites
	6, 12, 20, 96, 1000, // even non-powers of two
}

// TestPlannedFFTMatchesNaiveAllLengthClasses pins the plan-cached FFT
// to the O(n²) reference across every length class, running each length
// twice so the second pass exercises the cached plan rather than the
// build path.
func TestPlannedFFTMatchesNaiveAllLengthClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for _, n := range planLengths {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		want := naiveDFT(x)
		for pass := 0; pass < 2; pass++ {
			got := append([]complex128(nil), x...)
			FFT(got)
			for k := range want {
				if cmplx.Abs(got[k]-want[k]) > 1e-8*(1+cmplx.Abs(want[k])) {
					t.Fatalf("n=%d pass=%d bin %d: got %v want %v", n, pass, k, got[k], want[k])
				}
			}
		}
	}
}

// TestPlannedDCTMatchesNaiveAllLengthClasses does the same for the
// plan-cached DCT power, addAxisPower: Makhoul's permutation on the
// real plan (even lengths) or Bluestein's (odd ones).
func TestPlannedDCTMatchesNaiveAllLengthClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, n := range planLengths {
		counts := randomCounts(rng, n)
		for pass := 0; pass < 2; pass++ {
			checkNaivePower(t, fmt.Sprintf("n=%d pass=%d", n, pass), counts)
		}
	}
}

// TestPlannedParsevalAllLengthClasses checks the Parseval identity for
// both transforms over every length class: the FFT preserves energy up
// to the 1/n normalization and the orthonormal DCT preserves it
// exactly, so 2K times the DCT power's bins is the axis's Σ(g−mean)².
func TestPlannedParsevalAllLengthClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range planLengths {
		x := make([]complex128, n)
		var te float64
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			te += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		}
		FFT(x)
		var fe float64
		for _, v := range x {
			fe += real(v)*real(v) + imag(v)*imag(v)
		}
		fe /= float64(n)
		if !almostEqual(te, fe, 1e-9) {
			t.Fatalf("FFT n=%d Parseval: time %.12f freq %.12f", n, te, fe)
		}
		checkParseval(t, fmt.Sprintf("DCT power n=%d", n), randomCounts(rng, n))
	}
}

// reset empties the registry, so a test's lengths are cached whatever
// ran before it in this process.
func (r *planRegistry[K, T]) reset() {
	r.plans.Range(func(k, _ any) bool {
		r.plans.Delete(k)
		return true
	})
	r.slots.Store(0)
}

func (r *planRegistry[K, T]) len() int {
	n := 0
	r.plans.Range(func(_, _ any) bool {
		n++
		return true
	})
	return n
}

// resetPlanRegistries empties every length-keyed registry: the plans
// and the scratch pools.
func resetPlanRegistries() {
	fftPlans.reset()
	bluesteinPlans.reset()
	dctPlans.reset()
	realPlans.reset()
	hannPlans.reset()
	hannSmoothPlans.reset()
	axisPlans.reset()
	cbufPools.reset()
	fbufPools.reset()
}

// TestPlanRegistryReturnsSharedPlans verifies the registries converge
// on one immutable plan per length, so repeated transforms hit the
// cache instead of rebuilding tables.
func TestPlanRegistryReturnsSharedPlans(t *testing.T) {
	resetPlanRegistries()
	for _, n := range []int{8, 64, 1024} {
		if p1, p2 := planFFT(n), planFFT(n); p1 != p2 {
			t.Fatalf("planFFT(%d) returned distinct plans", n)
		}
	}
	for _, n := range []int{7, 100, 1000} {
		if p1, p2 := planBluestein(n), planBluestein(n); p1 != p2 {
			t.Fatalf("planBluestein(%d) returned distinct plans", n)
		}
	}
	for _, n := range []int{5, 33, 1023} {
		if p1, p2 := planDCT(n), planDCT(n); p1 != p2 {
			t.Fatalf("planDCT(%d) returned distinct plans", n)
		}
	}
	if w1, w2 := hannCached(24), hannCached(24); &w1[0] != &w2[0] {
		t.Fatal("hannCached(24) returned distinct windows")
	}
}

// TestPlanRegistryConcurrentAccess hammers the plan registries and the
// pooled transform entry points from many goroutines at once — first
// use of each length included, so plan construction itself races — and
// checks every result against the sequential answer. Run under -race
// this is the concurrency contract of the plan cache and buffer pools.
func TestPlanRegistryConcurrentAccess(t *testing.T) {
	// Lengths chosen to be unique to this test so the registries see
	// genuinely concurrent first use.
	lengths := []int{37, 74, 148, 296, 592, 61, 122, 244}
	rng := rand.New(rand.NewSource(24))
	inputs := make([][]float64, len(lengths))
	counts := make([][]int16, len(lengths))
	wantPower := make([][]float64, len(lengths))
	wantFFT := make([][]complex128, len(lengths))
	for i, n := range lengths {
		inputs[i] = make([]float64, n)
		for j := range inputs[i] {
			inputs[i][j] = rng.NormFloat64()
		}
		counts[i] = randomCounts(rng, n)
		wantPower[i] = naivePower(counts[i], adcScale)
		c := make([]complex128, n)
		for j, v := range inputs[i] {
			c[j] = complex(v, 0)
		}
		wantFFT[i] = naiveDFT(c)
	}

	const goroutines = 16
	const rounds = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(lengths)
				n := lengths[i]
				c := make([]complex128, n)
				for j, v := range inputs[i] {
					c[j] = complex(v, 0)
				}
				FFT(c)
				for k := range c {
					if cmplx.Abs(c[k]-wantFFT[i][k]) > 1e-8*(1+cmplx.Abs(wantFFT[i][k])) {
						errs <- "concurrent FFT diverged from sequential reference"
						return
					}
				}
				// The DCT power shares the same registries and scratch
				// pools.
				p, _, sumSq := axisPower(counts[i], adcScale)
				total := sum(wantPower[i])
				for k := range p {
					if math.Abs(p[k]-wantPower[i][k]) > naiveBound*total {
						errs <- "concurrent DCT power diverged from the naive reference"
						return
					}
				}
				if e := 2 * float64(n) * sum(p); math.Abs(e-sumSq) > 1e-12*sumSq {
					errs <- "concurrent DCT power breaks Parseval"
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestDemeanIntoAliasing pins the documented aliasing contract: dst may
// be the input itself.
func TestDemeanIntoAliasing(t *testing.T) {
	x := []float64{1, 2, 3, 4, 5}
	out := DemeanInto(x, x)
	if &out[0] != &x[0] {
		t.Fatal("DemeanInto(x, x) must operate in place")
	}
	var sum float64
	for _, v := range out {
		sum += v
	}
	if math.Abs(sum) > 1e-12 {
		t.Fatalf("demeaned sum %g", sum)
	}
}

// TestPlanRegistriesAreBounded walks four times the cap of distinct
// lengths through every registry — what a client varying its sample
// count does to a serving node. Each registry must stop growing at the
// cap, and every transform, cached or one-off, must equal the one a
// freshly built plan computes.
func TestPlanRegistriesAreBounded(t *testing.T) {
	resetPlanRegistries()
	t.Cleanup(resetPlanRegistries)
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 4*maxCachedPlans; i++ {
		n := 2*i + 35 // odd: Bluestein, over a few power-of-two sub-plans
		x := make([]float64, n)
		c := make([]complex128, n)
		for j := range x {
			x[j] = rng.NormFloat64()
			c[j] = complex(x[j], rng.NormFloat64())
		}

		want := append([]complex128(nil), c...)
		newBluesteinPlan(n).transform(want, false)
		FFT(c)
		for k := range c {
			if c[k] != want[k] {
				t.Fatalf("FFT n=%d bin %d: %v, fresh plan %v", n, k, c[k], want[k])
			}
		}

		// addAxisPower has no entry point taking a plan: pin it to
		// the O(n²) reference instead, at this odd length (the complex
		// path) and the even one after it (the real plan).
		counts := randomCounts(rng, n+1)
		for _, c := range [][]int16{counts[:n], counts} {
			checkNaivePower(t, fmt.Sprintf("DCT power n=%d", len(c)), c)
		}

		w, fresh := hannCached(n), HannWindow(n)
		for k := range w {
			if w[k] != fresh[k] {
				t.Fatalf("hann n=%d tap %d: %g, fresh %g", n, k, w[k], fresh[k])
			}
		}

		sameSmooth(t, x, i+4) // a window length of its own
		checkAxis(t, 1000+float64(i), n)
	}
	checkAxis(t, 4000, maxCachedAxis+1) // never cached
	for name, size := range map[string]int{
		"fft": fftPlans.len(), "bluestein": bluesteinPlans.len(), "dct": dctPlans.len(), "real": realPlans.len(), "hann": hannPlans.len(),
		"hannSmooth": hannSmoothPlans.len(), "axis": axisPlans.len(),
	} {
		if size > maxCachedPlans {
			t.Errorf("%s registry holds %d plans, cap %d", name, size, maxCachedPlans)
		}
	}
	if got := bluesteinPlans.len(); got != maxCachedPlans {
		t.Errorf("bluestein registry holds %d plans after %d lengths, want it full at %d", got, 4*maxCachedPlans, maxCachedPlans)
	}
	// A length cached before the cap was reached is still a hit.
	if p1, p2 := planBluestein(35), planBluestein(35); p1 != p2 {
		t.Error("a cached length must keep returning its one plan")
	}
	// One past the cap is served by a one-off plan.
	if p1, p2 := planBluestein(2*(4*maxCachedPlans-1)+35), planBluestein(2*(4*maxCachedPlans-1)+35); p1 == p2 {
		t.Error("a length past the cap must not have been stored")
	}
}

// TestScratchPoolsAreBounded walks 1,000 distinct lengths through the
// scratch pools, as a client varying its sample count does. Each pool
// map must stop at the cap, and a length past it must still get a
// buffer of its size, with the put dropping it rather than keeping a
// pool for it.
func TestScratchPoolsAreBounded(t *testing.T) {
	resetPlanRegistries()
	t.Cleanup(resetPlanRegistries)
	for n := 1; n <= 1000; n++ {
		c, f := getCBuf(n), getFBuf(n)
		if len(c.s) != n || len(f.s) != n {
			t.Fatalf("length %d: buffers of %d and %d", n, len(c.s), len(f.s))
		}
		putCBuf(c)
		putFBuf(f)
	}
	for name, size := range map[string]int{"complex": cbufPools.len(), "float": fbufPools.len()} {
		if size != maxCachedPlans {
			t.Errorf("%s scratch pools hold %d lengths after 1,000, want the cap %d", name, size, maxCachedPlans)
		}
	}
	if _, ok := cbufPools.plans.Load(1000); ok {
		t.Error("a length past the cap must not get a pool")
	}
}

// checkAxis fails t unless DCTAxisInto's axis for (rate, k) is the
// inline loop's, bit for bit.
func checkAxis(t *testing.T, rate float64, k int) {
	t.Helper()
	for i, f := range DCTAxisInto(nil, rate, k) {
		if want := float64(i) * rate / (2 * float64(k)); math.Float64bits(f) != math.Float64bits(want) {
			t.Fatalf("axis rate %v, k %d, bin %d: %v, inline %v", rate, k, i, f, want)
		}
	}
}
