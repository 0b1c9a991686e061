package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestHannWindowShape(t *testing.T) {
	w := HannWindow(24)
	if len(w) != 24 {
		t.Fatalf("length %d", len(w))
	}
	if math.Abs(w[0]) > 1e-12 || math.Abs(w[23]) > 1e-12 {
		t.Fatalf("Hann endpoints should be 0: %g %g", w[0], w[23])
	}
	// Symmetric.
	for i := 0; i < 12; i++ {
		if !almostEqual(w[i], w[23-i], 1e-12) {
			t.Fatalf("asymmetric at %d: %g vs %g", i, w[i], w[23-i])
		}
	}
	// Peak near the center with value close to 1 (exactly 1 for odd n).
	wOdd := HannWindow(25)
	if !almostEqual(wOdd[12], 1, 1e-12) {
		t.Fatalf("odd-length Hann center %g", wOdd[12])
	}
}

func TestWindowEdgeCases(t *testing.T) {
	if got := HannWindow(0); len(got) != 0 {
		t.Fatal("HannWindow(0) should be empty")
	}
	if got := HannWindow(1); len(got) != 1 || got[0] != 1 {
		t.Fatalf("HannWindow(1) = %v", got)
	}
}

func TestSmoothConvolvePreservesConstant(t *testing.T) {
	// The kernel-mass normalization must leave a constant input intact,
	// including near the edges.
	x := make([]float64, 50)
	for i := range x {
		x[i] = 7
	}
	y := smoothHannInto(nil, x, 9)
	for i, v := range y {
		if !almostEqual(v, 7, 1e-12) {
			t.Fatalf("sample %d: %g", i, v)
		}
	}
}

func TestSmoothConvolveReducesVariance(t *testing.T) {
	x := make([]float64, 256)
	for i := range x {
		if i%2 == 0 {
			x[i] = 1
		} else {
			x[i] = -1
		}
	}
	y := smoothHannInto(nil, x, 9)
	if Variance(y) >= Variance(x)/2 {
		t.Fatalf("smoothing did not reduce variance: %g vs %g", Variance(y), Variance(x))
	}
}

func TestSmoothConvolveEmpty(t *testing.T) {
	if got := smoothHannInto(nil, nil, 5); len(got) != 0 {
		t.Fatal("empty signal should stay empty")
	}
	// Hann(1) and Hann(3) are the identity and Hann(2) has no mass:
	// each copies.
	x := []float64{1, 2, 3}
	for m := 0; m <= 3; m++ {
		got := smoothHannInto(nil, x, m)
		for i := range x {
			if got[i] != x[i] {
				t.Fatalf("window %d should copy input, got %v", m, got)
			}
		}
	}
}

func TestEWMA(t *testing.T) {
	x := []float64{1, 1, 1, 10}
	y := EWMA(x, 0.5)
	if y[0] != 1 {
		t.Fatalf("first EWMA sample %g", y[0])
	}
	if !(y[3] > 1 && y[3] < 10) {
		t.Fatalf("EWMA should lag the jump: %g", y[3])
	}
	// alpha out of range behaves like identity.
	id := EWMA(x, 2)
	for i := range x {
		if id[i] != x[i] {
			t.Fatalf("alpha>1 should be identity: %v", id)
		}
	}
	if got := EWMA(nil, 0.5); len(got) != 0 {
		t.Fatal("EWMA(nil) should be empty")
	}
}

// indexedSmooth is the direct reflected convolution of x by kernel,
// normalised by the kernel mass: the interior an indexed loop over four
// accumulators, the edge bands smoothEdges. smoothHannInto is proven
// against it.
func indexedSmooth(x, kernel []float64) []float64 {
	n, m := len(x), len(kernel)
	dst := make([]float64, n)
	half := m / 2
	var total float64
	for _, k := range kernel {
		total += k
	}
	lo, hi := half, n-(m-1-half)
	if lo > n {
		lo = n
	}
	if hi < lo {
		hi = lo
	}
	inv := 1 / total
	for i := lo; i < hi; i++ {
		base := x[i-half : i-half+m : i-half+m]
		var s0, s1, s2, s3 float64
		j := 0
		for ; j+4 <= m; j += 4 {
			s0 += base[j] * kernel[j]
			s1 += base[j+1] * kernel[j+1]
			s2 += base[j+2] * kernel[j+2]
			s3 += base[j+3] * kernel[j+3]
		}
		for ; j < m; j++ {
			s0 += base[j] * kernel[j]
		}
		dst[i] = (s0 + s1 + s2 + s3) * inv
	}
	smoothEdges(dst, x, kernel, 0, lo)
	smoothEdges(dst, x, kernel, hi, n)
	return dst
}

// smoothBound is the sliding Hann sum's stated error: an interior
// output of smoothHannInto is within smoothBound·max|x| of the direct
// sum, the max taken over the output's window widened by smoothChain
// bins each way (every bin its chain can read).
const smoothBound = 1e-13

// sameSmooth fails t unless smoothHannInto of x by the length-m Hann
// window is the direct one's: bit for bit in the edge bands, within
// smoothBound of the local max |x| in the interior. For m <= 3 it is
// the input (Hann(3) is the identity, Hann(2) has no mass).
func sameSmooth(t *testing.T, x []float64, m int) {
	t.Helper()
	got := smoothHannInto(nil, x, m)
	if m <= 3 {
		for i := range x {
			if math.Float64bits(got[i]) != math.Float64bits(x[i]) {
				t.Fatalf("window %d, n=%d, point %d: %v, want the input %v", m, len(x), i, got[i], x[i])
			}
		}
		return
	}
	want := indexedSmooth(x, HannWindow(m))
	n, half := len(x), m/2
	lo, hi := half, n-(m-1-half)
	for i := range want {
		if i < lo || i >= hi {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("window %d, n=%d, edge point %d: %v, direct %v", m, n, i, got[i], want[i])
			}
			continue
		}
		var peak float64
		for _, v := range x[max(i-half-smoothChain, 0):min(i-half+m+smoothChain, n)] {
			peak = max(peak, math.Abs(v))
		}
		if d := math.Abs(got[i] - want[i]); !(d <= smoothBound*peak) {
			t.Fatalf("window %d, n=%d, point %d: %v, direct %v: off by %.3g of max |x| %.3g, bound %.0e",
				m, n, i, got[i], want[i], d/peak, peak, smoothBound)
		}
	}
}

// logNormal is n log-normal samples of spread sigma: a PSD-like signal
// whose dynamic range grows with sigma (e^{±3σ} at sigma 10).
func logNormal(rng *rand.Rand, n int, sigma float64) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Exp(sigma * rng.NormFloat64())
	}
	return x
}

// TestSmoothHannMatchesIndexedWithinBound: the sliding sum stays within
// smoothBound of the direct Hann convolution at signal lengths 0-9,
// 31-33, 64, 65, 299, 300, 1,024 and 4,096 — odd and even interiors,
// chain groups cut short and outputs left to direct sums — and every
// window length from 1 to n+2 (wider than the signal, where there is no
// interior; at 1,024 and 4,096 every length to 70, every 97th to 1,100
// and n−1 to n+2), on a signed signal and on a log-normal one of
// spread 10.
func TestSmoothHannMatchesIndexedWithinBound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, x := range [][]float64{benchSignal(4096), logNormal(rng, 4096, 10)} {
		for _, n := range []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 31, 32, 33, 64, 65, 299, 300} {
			for m := 1; m <= n+2; m++ {
				sameSmooth(t, x[:n], m)
			}
		}
		for _, n := range []int{1024, 4096} {
			for m := 1; m <= n+2; m++ {
				if m > 70 && m < n-1 && (m%97 != 0 || m > 1100) {
					continue
				}
				sameSmooth(t, x[:n], m)
			}
		}
	}
}

// FuzzSmoothConvolve: for any signal — signed, or log-normal of spread
// up to 10 — and any window length, the sliding Hann sum is within
// smoothBound of the direct convolution, and bitwise at the edges.
func FuzzSmoothConvolve(f *testing.F) {
	f.Add(int64(1), uint16(1024), uint16(24), uint8(0))
	f.Add(int64(2), uint16(5), uint16(7), uint8(40))
	f.Add(int64(3), uint16(4096), uint16(64), uint8(100))
	f.Fuzz(func(t *testing.T, seed int64, n, m uint16, spread uint8) {
		rng := rand.New(rand.NewSource(seed))
		var x []float64
		if spread == 0 {
			x = make([]float64, int(n)%4097)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
		} else {
			x = logNormal(rng, int(n)%4097, float64(spread%101)/10)
		}
		sameSmooth(t, x, int(m)%(len(x)+3))
	})
}
