package kde

import (
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func normalSamples(rng *rand.Rand, mu, sigma float64, n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = mu + sigma*rng.NormFloat64()
	}
	return s
}

func TestNewErrors(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name      string
		samples   []float64
		bandwidth float64
		want      error
	}{
		{"no samples", nil, 0, ErrNoSamples},
		{"NaN sample", []float64{nan, 1, 2, 3}, 0, ErrNonFinite},
		{"+Inf sample", []float64{1, 2, inf}, 0, ErrNonFinite},
		{"-Inf sample, explicit bandwidth", []float64{-inf, 1}, 0.5, ErrNonFinite},
		{"NaN bandwidth", []float64{1, 2, 3}, nan, ErrNonFinite},
		{"+Inf bandwidth", []float64{1, 2, 3}, inf, ErrNonFinite},
		{"Silverman overflows", []float64{-math.MaxFloat64, -math.MaxFloat64, math.MaxFloat64, math.MaxFloat64}, 0, ErrNonFinite},
	} {
		if e, err := New(tc.samples, tc.bandwidth); !errors.Is(err, tc.want) {
			bw := math.NaN()
			if e != nil {
				bw = e.Bandwidth()
			}
			t.Errorf("%s: err %v (bandwidth %g), want %v", tc.name, err, bw, tc.want)
		}
	}
}

// fullCDF is CDF as it was before its window: one erf term per sample,
// every sample, in sample order.
func fullCDF(e *Estimator, x float64) float64 {
	h := e.bandwidth
	var sum float64
	for _, s := range e.samples {
		sum += 0.5 * (1 + math.Erf((x-s)/(h*math.Sqrt2)))
	}
	return sum / float64(len(e.samples))
}

// sequentialBoundary is DecisionBoundary's grid scan on one core.
func sequentialBoundary(a, b *Estimator) float64 {
	loA, hiA := a.Support()
	loB, hiB := b.Support()
	lo, hi := math.Min(loA, loB), math.Max(hiA, hiB)
	wa := float64(a.N()) / float64(a.N()+b.N())
	wb := 1 - wa
	const steps = 2000
	bestX, bestErr := lo, math.Inf(1)
	for i := 0; i <= steps; i++ {
		x := lo + (hi-lo)*float64(i)/steps
		errRate := wa*(1-fullCDF(a, x)) + wb*fullCDF(b, x)
		if errRate < bestErr {
			bestErr = errRate
			bestX = x
		}
	}
	return bestX
}

// sameCDF fails t unless e.CDF(x) is fullCDF's value bit for bit.
func sameCDF(t *testing.T, name string, e *Estimator, x float64) {
	t.Helper()
	if got, want := e.CDF(x), fullCDF(e, x); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: CDF(%v) = %v, full sum %v", name, x, got, want)
	}
}

// TestCDFEqualsFullSum: the windowed CDF is the full erf sum bit for
// bit — one sample, duplicates, the degenerate-bandwidth fallback, grid
// points on and between samples, and ±Inf.
func TestCDFEqualsFullSum(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct {
		name      string
		samples   []float64
		bandwidth float64
	}{
		{"one sample", []float64{0.3}, 0},
		{"duplicates", []float64{1, 1, 1, 2, 2, 5, 5, 5, 5}, 0},
		{"fallback bandwidth", []float64{0.21, 0.21, 0.21}, 0},
		{"explicit bandwidth", []float64{-3, 0, 0.5, 9}, 0.7},
		{"normal 700", normalSamples(rng, 0.15, 0.04, 700), 0},
		{"normal 1400", normalSamples(rng, 0.3, 0.08, 1400), 0},
	}
	for _, tc := range cases {
		e, err := New(tc.samples, tc.bandwidth)
		if err != nil {
			t.Fatal(err)
		}
		if tc.name == "fallback bandwidth" && e.Bandwidth() != 1e-6 {
			t.Fatalf("fixture: bandwidth %g, want the 1e-6 fallback", e.Bandwidth())
		}
		h := e.Bandwidth()
		for _, s := range e.samples {
			for _, d := range []float64{0, h, -h, 6 * h, -6 * h, 6*h*math.Sqrt2 + 1e-12, -6*h*math.Sqrt2 - 1e-12} {
				sameCDF(t, tc.name, e, s+d)
			}
		}
		lo, hi := e.Support()
		for i := 0; i <= 200; i++ {
			sameCDF(t, tc.name, e, lo-1+(hi-lo+2)*float64(i)/200)
		}
		for _, x := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
			got, want := e.CDF(x), fullCDF(e, x)
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("%s: CDF(%v) = %v, full sum %v", tc.name, x, got, want)
			}
		}
	}
}

// FuzzCDFWindow: the windowed CDF equals the full sum bit for bit for
// any finite sample set, bandwidth and point.
func FuzzCDFWindow(f *testing.F) {
	f.Add(int64(1), uint16(10), 1.0, 0.0, 0.5)
	f.Add(int64(2), uint16(1), 0.0, 0.0, 0.0)
	f.Add(int64(3), uint16(700), 0.04, 0.3, 0.21)
	f.Add(int64(4), uint16(40), 1e-9, 1e6, 1e6)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, spread, bandwidth, x float64) {
		if n == 0 || math.IsNaN(spread) || math.IsInf(spread, 0) || math.IsNaN(x) {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		s := make([]float64, 1+int(n)%2000)
		for i := range s {
			s[i] = spread * rng.NormFloat64()
			if rng.Intn(4) == 0 && i > 0 {
				s[i] = s[i-1] // duplicates
			}
		}
		e, err := New(s, bandwidth)
		if err != nil {
			return // a non-finite bandwidth, refused
		}
		sameCDF(t, "fuzz", e, x)
		sameCDF(t, "fuzz, on a sample", e, e.samples[rng.Intn(len(e.samples))])
	})
}

// TestDecisionBoundaryEqualsSequentialScan: the chunked scan returns
// the sequential full-sum scan's boundary bit for bit at GOMAXPROCS 1
// and 2, including on a flat error curve where only the first minimum
// may win.
func TestDecisionBoundaryEqualsSequentialScan(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(12))
	pairs := [][2][]float64{
		{normalSamples(rng, 0.15, 0.04, 700), normalSamples(rng, 0.3, 0.08, 1400)},
		{normalSamples(rng, 0, 1, 300), normalSamples(rng, 6, 1, 300)},
		{{1, 1, 1}, {9}},           // fallback bandwidth: a flat error curve between
		{{0, 0.5, 1}, {0, 0.5, 1}}, // identical classes
	}
	for k, p := range pairs {
		a, err := New(p[0], 0)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(p[1], 0)
		if err != nil {
			t.Fatal(err)
		}
		want := sequentialBoundary(a, b)
		for _, procs := range []int{1, 2} {
			runtime.GOMAXPROCS(procs)
			if got := DecisionBoundary(a, b); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("pair %d, GOMAXPROCS %d: boundary %v, sequential scan %v", k, procs, got, want)
			}
		}
	}
}

// BenchmarkDecisionBoundary prices the Fig. 11 boundary at about the
// paper pass's class sizes and means: 1,400 Zone BC scores around 0.05
// against 700 Zone D scores around 0.18.
func BenchmarkDecisionBoundary(b *testing.B) {
	rng := rand.New(rand.NewSource(13))
	bc, _ := New(normalSamples(rng, 0.05, 0.03, 1400), 0)
	d, _ := New(normalSamples(rng, 0.18, 0.06, 700), 0)
	b.ReportAllocs()
	for b.Loop() {
		DecisionBoundary(bc, d)
	}
}

func TestDensityPeaksAtMode(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	e, err := New(normalSamples(rng, 2, 0.5, 2000), 0)
	if err != nil {
		t.Fatal(err)
	}
	dMode := e.Density(2)
	if dMode < e.Density(0.5) || dMode < e.Density(3.5) {
		t.Fatalf("density at mode %.4f not maximal (%.4f, %.4f)", dMode, e.Density(0.5), e.Density(3.5))
	}
	// Against the true N(2, 0.5) peak 1/(0.5·√(2π)) ≈ 0.7979.
	if math.Abs(dMode-0.7979) > 0.12 {
		t.Fatalf("mode density %.4f far from true 0.798", dMode)
	}
}

func TestDensityIntegratesToOne(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	e, err := New(normalSamples(rng, 0, 1, 500), 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := e.Support()
	const steps = 4000
	var integral float64
	dx := (hi - lo) / steps
	for i := 0; i <= steps; i++ {
		integral += e.Density(lo+float64(i)*dx) * dx
	}
	if math.Abs(integral-1) > 0.01 {
		t.Fatalf("density integrates to %.4f", integral)
	}
}

func TestCDFMonotoneAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	e, err := New(normalSamples(rng, 5, 2, 300), 0)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := e.Support()
	prev := -1.0
	for i := 0; i <= 100; i++ {
		x := lo + (hi-lo)*float64(i)/100
		c := e.CDF(x)
		if c < prev-1e-12 {
			t.Fatalf("CDF not monotone at %g", x)
		}
		if c < 0 || c > 1 {
			t.Fatalf("CDF out of range: %g", c)
		}
		prev = c
	}
	if e.CDF(lo) > 0.01 || e.CDF(hi) < 0.99 {
		t.Fatalf("CDF endpoints %g %g", e.CDF(lo), e.CDF(hi))
	}
}

func TestDegenerateSamples(t *testing.T) {
	e, err := New([]float64{3, 3, 3, 3}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bandwidth() <= 0 {
		t.Fatalf("bandwidth %g", e.Bandwidth())
	}
	if e.Density(3) <= 0 {
		t.Fatal("zero density at the only mode")
	}
}

func TestExplicitBandwidth(t *testing.T) {
	e, err := New([]float64{0, 1, 2}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bandwidth() != 0.7 {
		t.Fatalf("bandwidth %g, want 0.7", e.Bandwidth())
	}
	if e.N() != 3 {
		t.Fatalf("N = %d", e.N())
	}
}

func TestSilvermanBandwidthBehaviour(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	small := SilvermanBandwidth(normalSamples(rng, 0, 1, 50))
	large := SilvermanBandwidth(normalSamples(rng, 0, 1, 5000))
	if small <= 0 || large <= 0 {
		t.Fatal("bandwidths must be positive")
	}
	if large >= small {
		t.Fatalf("bandwidth should shrink with n: %g vs %g", small, large)
	}
	if SilvermanBandwidth([]float64{1}) != 0 {
		t.Fatal("single sample should give zero (caller falls back)")
	}
}

func TestDecisionBoundarySeparatedClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, err := New(normalSamples(rng, 0, 1, 1000), 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(normalSamples(rng, 6, 1, 1000), 0)
	if err != nil {
		t.Fatal(err)
	}
	x := DecisionBoundary(a, b)
	// Equal priors and symmetric spreads → boundary near the midpoint 3.
	if math.Abs(x-3) > 0.5 {
		t.Fatalf("boundary %.3f, want ≈3", x)
	}
}

func TestDecisionBoundaryPriorShift(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// Class a has 9× the samples of b: the boundary shifts toward b to
	// avoid misclassifying the dominant class.
	a, _ := New(normalSamples(rng, 0, 1, 1800), 0)
	b, _ := New(normalSamples(rng, 4, 1, 200), 0)
	x := DecisionBoundary(a, b)
	if x <= 2 {
		t.Fatalf("boundary %.3f should shift above the midpoint 2", x)
	}
}

func TestGrid(t *testing.T) {
	e, err := New([]float64{0, 1, 2}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	xs, ys := e.Grid(0, 2, 5)
	if len(xs) != 5 || len(ys) != 5 {
		t.Fatalf("grid lengths %d %d", len(xs), len(ys))
	}
	if xs[0] != 0 || xs[4] != 2 {
		t.Fatalf("grid endpoints %v", xs)
	}
	for _, y := range ys {
		if y < 0 {
			t.Fatal("negative density")
		}
	}
	// n < 2 is clamped.
	xs, _ = e.Grid(0, 1, 1)
	if len(xs) != 2 {
		t.Fatalf("clamped grid length %d", len(xs))
	}
}
