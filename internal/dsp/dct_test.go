package dsp

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

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

func TestDCTMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, n := range []int{1, 2, 3, 4, 7, 8, 16, 33, 64, 100} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := naiveDCT2(x)
		got := DCT(x)
		for k := range want {
			if !almostEqual(got[k], want[k], 1e-9) {
				t.Fatalf("n=%d bin %d: got %.12f want %.12f", n, k, got[k], want[k])
			}
		}
	}
}

func TestDCTParseval(t *testing.T) {
	// The orthonormal DCT preserves energy — the identity the paper uses
	// to show rms² equals the sum of the PSD feature.
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{4, 17, 128, 1024} {
		x := make([]float64, n)
		var e float64
		for i := range x {
			x[i] = rng.NormFloat64()
			e += x[i] * x[i]
		}
		c := DCT(x)
		var ec float64
		for _, v := range c {
			ec += v * v
		}
		if !almostEqual(e, ec, 1e-10) {
			t.Fatalf("n=%d: energy %.12f vs %.12f", n, e, ec)
		}
	}
}

func TestIDCTInvertsDCT(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for _, n := range []int{1, 2, 5, 16, 50, 128} {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := IDCT(DCT(x))
		for i := range x {
			if !almostEqual(y[i], x[i], 1e-8) {
				t.Fatalf("n=%d sample %d: %.12f want %.12f", n, i, y[i], x[i])
			}
		}
	}
}

func TestDCTConstantSignal(t *testing.T) {
	// A constant signal concentrates all energy in the DC coefficient.
	n := 64
	x := make([]float64, n)
	for i := range x {
		x[i] = 3.5
	}
	c := DCT(x)
	if !almostEqual(c[0], 3.5*math.Sqrt(float64(n)), 1e-10) {
		t.Fatalf("DC coefficient %.9f", c[0])
	}
	for k := 1; k < n; k++ {
		if math.Abs(c[k]) > 1e-9 {
			t.Fatalf("bin %d should be zero, got %g", k, c[k])
		}
	}
}

func TestDCTEmptyAndSingle(t *testing.T) {
	if got := DCT(nil); len(got) != 0 {
		t.Fatalf("DCT(nil) length %d", len(got))
	}
	if got := DCT([]float64{2}); len(got) != 1 || got[0] != 2 {
		t.Fatalf("DCT single = %v", got)
	}
	if got := IDCT([]float64{2}); len(got) != 1 || got[0] != 2 {
		t.Fatalf("IDCT single = %v", got)
	}
}

func TestDCTParsevalProperty(t *testing.T) {
	f := func(raw []float64) bool {
		x := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			x = append(x, math.Mod(v, 1e6))
			if len(x) == 256 {
				break
			}
		}
		if len(x) == 0 {
			return true
		}
		var e float64
		for _, v := range x {
			e += v * v
		}
		var ec float64
		for _, v := range DCT(x) {
			ec += v * v
		}
		return almostEqual(e, ec, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
