package dsp

import (
	"errors"
	"math"
	"slices"
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
		s += float64(d * d)
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
			varv[i] += float64(dv * dv)
		}
	}
	inv := 1 / float64(len(rows))
	for i := range varv {
		varv[i] = float64(varv[i]*inv) + eps
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
	if len(x) < 2 {
		return 0, 0, 0, errors.New("dsp: need at least two points to fit a line")
	}
	mx, my := Mean(x), Mean(y)
	var sxx, sxy, syy float64
	for i := range x {
		dx, dy := x[i]-mx, y[i]-my
		sxx += float64(dx * dx)
		sxy += float64(dx * dy)
		syy += float64(dy * dy)
	}
	if sxx == 0 {
		return 0, 0, 0, ErrSingular
	}
	slope = sxy / sxx
	intercept = my - float64(slope*mx)
	if syy == 0 {
		r2 = 1
	} else {
		r2 = (sxy * sxy) / (sxx * syy)
	}
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
	slices.Sort(s)
	if p <= 0 {
		return s[0]
	}
	if p >= 100 {
		return s[n-1]
	}
	pos := float64(p / 100 * float64(n-1))
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s[n-1]
	}
	return float64(s[lo]*(1-frac)) + float64(s[lo+1]*frac)
}
