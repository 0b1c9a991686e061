package dsp

import (
	"errors"
	"math"
)

// ErrSingular is returned when a linear solve encounters a (numerically)
// singular matrix.
var ErrSingular = errors.New("dsp: singular matrix")

// EuclideanDistance returns ‖a − b‖₂.
func EuclideanDistance(a, b []float64) float64 {
	checkLen("EuclideanDistance", len(a), len(b))
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// MeanVector returns the element-wise mean of the rows (each a vector of
// equal length). It returns nil for an empty input.
func MeanVector(rows [][]float64) []float64 {
	if len(rows) == 0 {
		return nil
	}
	d := len(rows[0])
	mu := make([]float64, d)
	for _, r := range rows {
		checkLen("MeanVector", len(r), d)
		for i, v := range r {
			mu[i] += v
		}
	}
	inv := 1 / float64(len(rows))
	for i := range mu {
		mu[i] *= inv
	}
	return mu
}

// DiagonalCovariance returns the per-dimension variance of the rows,
// regularized by adding eps to every entry. The paper notes that the
// full 1024-dim PSD covariance sᵀs is routinely singular with realistic
// sample counts, so the Mahalanobis baseline uses this diagonal
// approximation (a standard practical fallback).
func DiagonalCovariance(rows [][]float64, eps float64) []float64 {
	mu := MeanVector(rows)
	if mu == nil {
		return nil
	}
	d := len(mu)
	varv := make([]float64, d)
	for _, r := range rows {
		for i, v := range r {
			dv := v - mu[i]
			varv[i] += dv * dv
		}
	}
	inv := 1 / float64(len(rows))
	for i := range varv {
		varv[i] = varv[i]*inv + eps
	}
	return varv
}

// MahalanobisDiag returns the Mahalanobis distance of x from mean mu
// under a diagonal covariance varv (variances, all > 0).
func MahalanobisDiag(x, mu, varv []float64) float64 {
	checkLen("MahalanobisDiag", len(x), len(mu))
	checkLen("MahalanobisDiag", len(x), len(varv))
	var s float64
	for i := range x {
		d := x[i] - mu[i]
		s += d * d / varv[i]
	}
	return math.Sqrt(s)
}

// FitLine fits y = slope·x + intercept by least squares and reports the
// coefficient of determination R². It returns ErrSingular when all x
// values coincide.
func FitLine(x, y []float64) (slope, intercept, r2 float64, err error) {
	checkLen("FitLine", len(x), len(y))
	n := float64(len(x))
	if len(x) < 2 {
		return 0, 0, 0, errors.New("dsp: need at least two points to fit a line")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, ErrSingular
	}
	slope = sxy / sxx
	intercept = my - slope*mx
	if syy == 0 {
		r2 = 1
	} else {
		r2 = (sxy * sxy) / (sxx * syy)
	}
	_ = n
	return slope, intercept, r2, nil
}

// Percentile returns the p-th percentile (0..100) of x using linear
// interpolation between order statistics. x is not modified.
func Percentile(x []float64, p float64) float64 {
	n := len(x)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), x...)
	insertionSort(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	pos := p / 100 * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s[n-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func insertionSort(s []float64) {
	// Small inputs dominate Percentile's call sites; for large slices
	// fall back to a simple heapsort to keep worst-case O(n log n).
	if len(s) > 64 {
		heapSort(s)
		return
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func heapSort(s []float64) {
	n := len(s)
	for i := n/2 - 1; i >= 0; i-- {
		siftDown(s, i, n)
	}
	for end := n - 1; end > 0; end-- {
		s[0], s[end] = s[end], s[0]
		siftDown(s, 0, end)
	}
}

func siftDown(s []float64, root, end int) {
	for {
		child := 2*root + 1
		if child >= end {
			return
		}
		if child+1 < end && s[child+1] > s[child] {
			child++
		}
		if s[root] >= s[child] {
			return
		}
		s[root], s[child] = s[child], s[root]
		root = child
	}
}
