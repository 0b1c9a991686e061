package dsp

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestDotAndNorm(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %g", got)
	}
}

func TestEuclideanDistance(t *testing.T) {
	if got := EuclideanDistance([]float64{0, 0}, []float64{3, 4}); !almostEqual(got, 5, 1e-12) {
		t.Fatalf("distance = %g", got)
	}
	if got := EuclideanDistance([]float64{1}, []float64{1}); got != 0 {
		t.Fatalf("self distance = %g", got)
	}
}

func TestMeanVector(t *testing.T) {
	rows := [][]float64{{1, 2}, {3, 4}, {5, 6}}
	mu := MeanVector(rows)
	if !almostEqual(mu[0], 3, 1e-12) || !almostEqual(mu[1], 4, 1e-12) {
		t.Fatalf("mean vector = %v", mu)
	}
	if MeanVector(nil) != nil {
		t.Fatal("empty input should return nil")
	}
}

func TestDiagonalCovariance(t *testing.T) {
	rows := [][]float64{{0, 10}, {2, 10}, {4, 10}}
	v := DiagonalCovariance(rows, 0)
	// Population variance of {0,2,4} is 8/3; second dim is constant.
	if !almostEqual(v[0], 8.0/3, 1e-12) {
		t.Fatalf("var[0] = %g", v[0])
	}
	if v[1] != 0 {
		t.Fatalf("var[1] = %g", v[1])
	}
	// eps regularization lifts zero variances.
	vr := DiagonalCovariance(rows, 1e-6)
	if vr[1] != 1e-6 {
		t.Fatalf("regularized var[1] = %g", vr[1])
	}
}

func TestMahalanobisDiag(t *testing.T) {
	mu := []float64{0, 0}
	varv := []float64{4, 1}
	got := MahalanobisDiag([]float64{2, 1}, mu, varv)
	if !almostEqual(got, math.Sqrt(2), 1e-12) {
		t.Fatalf("Mahalanobis = %g", got)
	}
}

func TestFitLineRecovers(t *testing.T) {
	x := []float64{0, 1, 2, 3, 4}
	y := make([]float64, len(x))
	for i, xv := range x {
		y[i] = 2.5*xv - 1
	}
	slope, intercept, r2, err := FitLine(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(slope, 2.5, 1e-12) || !almostEqual(intercept, -1, 1e-12) || !almostEqual(r2, 1, 1e-12) {
		t.Fatalf("fit = %g %g %g", slope, intercept, r2)
	}
}

func TestFitLineErrors(t *testing.T) {
	if _, _, _, err := FitLine([]float64{1}, []float64{1}); err == nil {
		t.Fatal("want too-few-points error")
	}
	if _, _, _, err := FitLine([]float64{2, 2, 2}, []float64{1, 2, 3}); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestFitLineConstantY(t *testing.T) {
	_, _, r2, err := FitLine([]float64{1, 2, 3}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if r2 != 1 {
		t.Fatalf("constant y should report r2=1 (perfect flat fit), got %g", r2)
	}
}

func TestPercentile(t *testing.T) {
	x := []float64{5, 1, 3, 2, 4}
	if got := Percentile(x, 0); got != 1 {
		t.Fatalf("p0 = %g", got)
	}
	if got := Percentile(x, 100); got != 5 {
		t.Fatalf("p100 = %g", got)
	}
	if got := Percentile(x, 50); got != 3 {
		t.Fatalf("p50 = %g", got)
	}
	if got := Percentile(x, 25); got != 2 {
		t.Fatalf("p25 = %g", got)
	}
	if got := Percentile(nil, 50); got != 0 {
		t.Fatalf("empty percentile = %g", got)
	}
	// Input must not be mutated.
	if x[0] != 5 {
		t.Fatal("Percentile mutated its input")
	}
}

func TestPercentileLargeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := make([]float64, 500) // exercises the heapsort path
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	if got := Percentile(x, 0); got != sorted[0] {
		t.Fatalf("min mismatch: %g vs %g", got, sorted[0])
	}
	if got := Percentile(x, 100); got != sorted[len(sorted)-1] {
		t.Fatalf("max mismatch")
	}
}

func TestEuclideanTriangleInequalityProperty(t *testing.T) {
	f := func(a, b, c [8]float64) bool {
		for i := 0; i < 8; i++ {
			for _, v := range []*float64{&a[i], &b[i], &c[i]} {
				if math.IsNaN(*v) || math.IsInf(*v, 0) {
					*v = 0
				}
				*v = math.Mod(*v, 1e6)
			}
		}
		ab := EuclideanDistance(a[:], b[:])
		bc := EuclideanDistance(b[:], c[:])
		ac := EuclideanDistance(a[:], c[:])
		return ac <= ab+bc+1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
