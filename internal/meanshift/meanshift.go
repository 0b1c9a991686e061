// Package meanshift implements the mean shift mode-seeking clustering
// algorithm of Comaniciu & Meer (reference [5] of the paper). The
// analysis engine uses it to cluster the per-measurement acceleration
// averages in 3-D and flag outlier measurements produced by drifting or
// faulty MEMS sensors (paper §IV-A, Fig. 8).
package meanshift

import (
	"errors"
	"math"
)

// Config controls the clustering run. The zero value is not usable: a
// positive Bandwidth is required.
type Config struct {
	// Bandwidth is the radius h of the flat kernel: every point within
	// h of a mode estimate weighs equally in its shifted mean. Required,
	// > 0.
	Bandwidth float64
}

// The rest of the run is fixed: a seed shifts at most maxIter times,
// has converged once a shift is shorter than h·tolFrac, and converged
// modes closer than h·mergeFrac are one cluster.
const (
	maxIter   = 300
	tolFrac   = 1e-3
	mergeFrac = 0.5
)

// Result reports the clustering outcome.
type Result struct {
	// Centers holds one converged mode per cluster.
	Centers [][]float64
	// Labels assigns each input point to the index of its cluster in
	// Centers.
	Labels []int
	// Sizes counts the members of each cluster.
	Sizes []int
}

// ErrBandwidth is returned when Config.Bandwidth is not positive.
var ErrBandwidth = errors.New("meanshift: bandwidth must be positive")

// ErrNoPoints is returned when the input is empty.
var ErrNoPoints = errors.New("meanshift: no points")

// Cluster runs mean shift over the points (each a vector of equal
// dimension) and returns the discovered modes and per-point labels.
func Cluster(points [][]float64, cfg Config) (*Result, error) {
	if cfg.Bandwidth <= 0 {
		return nil, ErrBandwidth
	}
	n := len(points)
	if n == 0 {
		return nil, ErrNoPoints
	}
	dim := len(points[0])
	for _, p := range points {
		if len(p) != dim {
			return nil, errors.New("meanshift: inconsistent point dimensions")
		}
	}
	tol := cfg.Bandwidth * tolFrac
	mergeRadius := cfg.Bandwidth * mergeFrac

	modes := make([][]float64, n)
	buf := make([]float64, dim)
	for i, p := range points {
		mode := append([]float64(nil), p...)
		for iter := 0; iter < maxIter; iter++ {
			shift := shiftMean(points, mode, cfg.Bandwidth, buf)
			if shift == nil {
				break // isolated point: stays where it is
			}
			d := dist(mode, shift)
			copy(mode, shift)
			if d < tol {
				break
			}
		}
		modes[i] = mode
	}

	// Merge converged modes into clusters.
	res := &Result{}
	labels := make([]int, n)
	for i, m := range modes {
		assigned := -1
		for ci, c := range res.Centers {
			if dist(m, c) < mergeRadius {
				assigned = ci
				break
			}
		}
		if assigned < 0 {
			res.Centers = append(res.Centers, append([]float64(nil), m...))
			res.Sizes = append(res.Sizes, 0)
			assigned = len(res.Centers) - 1
		}
		labels[i] = assigned
		res.Sizes[assigned]++
	}
	res.Labels = labels
	return res, nil
}

// shiftMean computes the mean of the points within h of center. It
// returns nil when there is none. buf is scratch space of the point
// dimension.
func shiftMean(points [][]float64, center []float64, h float64, buf []float64) []float64 {
	for i := range buf {
		buf[i] = 0
	}
	var mass float64
	for _, p := range points {
		if dist(center, p) > h {
			continue
		}
		for j, v := range p {
			buf[j] += v
		}
		mass++
	}
	if mass == 0 {
		return nil
	}
	out := make([]float64, len(buf))
	for j := range buf {
		out[j] = buf[j] / mass
	}
	return out
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// LargestCluster returns the index of the most populated cluster of r,
// or -1 when r holds no clusters. In the outlier-detection use case the
// largest cluster is the valid-measurement regime and everything else is
// discarded.
func LargestCluster(r *Result) int {
	best, bestSize := -1, -1
	for i, s := range r.Sizes {
		if s > bestSize {
			best, bestSize = i, s
		}
	}
	return best
}

// Outliers returns the indices of points not belonging to the largest
// cluster — the "invalid measurements marked with white rectangular
// boxes" of the paper's Fig. 8(b).
func Outliers(r *Result) []int {
	main := LargestCluster(r)
	var out []int
	for i, l := range r.Labels {
		if l != main {
			out = append(out, i)
		}
	}
	return out
}
