// Package meanshift implements the mean shift mode-seeking clustering
// algorithm of Comaniciu & Meer (reference [5] of the paper). The
// analysis engine uses it to cluster the per-measurement acceleration
// averages in 3-D and flag outlier measurements produced by drifting or
// faulty MEMS sensors (paper §IV-A, Fig. 8).
package meanshift

import (
	"bytes"
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
// Every point is a seed; a shift is answered by an index built once per
// call (see index), so the result is bit-identical to scanning all the
// points on every shift.
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

	ix := newIndex(points, cfg.Bandwidth)
	modes := make([]float64, n*dim)
	next := make([]float64, dim)
	for i, p := range points {
		mode := modes[i*dim : (i+1)*dim]
		copy(mode, p)
		for iter := 0; iter < maxIter; iter++ {
			if !ix.shiftMean(mode, next) {
				break // isolated point: stays where it is
			}
			d := dist(mode, next)
			copy(mode, next)
			if d < tol {
				break
			}
		}
	}

	// Merge converged modes into clusters.
	res := &Result{Labels: make([]int, n)}
	for i := range points {
		m := modes[i*dim : (i+1)*dim]
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
		res.Labels[i] = assigned
		res.Sizes[assigned]++
	}
	return res, nil
}

// index answers "the mean of the points within h of c" with the exact
// members, summed in the exact order, of a scan over all the points.
// The points are bucketed once in grid cells of edge h and each cell
// keeps the tight bounding box of its members. A shift prices a whole
// cell by the distances from c to the nearest and the farthest point of
// that box, accumulated the way dist accumulates: every step of dist
// (subtract, square, add in axis order, sqrt) is monotone in
// |c[j]-p[j]|, so near > h puts every member outside the ball and
// far <= h every member inside it, to the last bit and with no epsilon.
// Only the members of a cell that straddles the sphere are tested.
//
// When no cell straddles, the mean is a function of the set of inside
// cells alone and is memoised by that set: a series whose whole regime
// fits one ball pays one summation per distinct set, not one per shift.
//
// Any partition of the points keeps this exact; the grid only makes
// the boxes small. So a hash collision between cells merely merges
// them, and a point with a coordinate the grid cannot place (NaN, ±Inf,
// or p/h overflowing) goes to a cell whose box is all of space, which
// straddles every ball of finite radius.
type index struct {
	points [][]float64
	h      float64
	dim    int
	cellOf []int32   // point → cell
	box    []float64 // per cell: dim lower bounds, then dim upper bounds
	state  []uint8   // per cell, rewritten by every shift
	// memoKey holds memoSlots states without a straddling cell (all
	// outside = empty slot: no mean is stored for the empty ball) and
	// memoMean the mean each one sums to.
	memoKey  []uint8
	memoMean []float64
	sum      []float64 // scratch: the running sum of a shift
}

const (
	outside = iota
	inside
	straddling
)

// The memo is direct-mapped and bounded, so that a Cluster call
// allocates the same whatever its shifts do; a healthy series has one
// inside set and each far glitch adds one. Both hashes are FNV-1a.
const (
	memoBits  = 6
	memoSlots = 1 << memoBits
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func newIndex(points [][]float64, h float64) *index {
	dim := len(points[0])
	ix := &index{points: points, h: h, dim: dim, cellOf: make([]int32, len(points))}
	cells := make(map[uint64]int32)
	for i, p := range points {
		hash, placed := uint64(fnvOffset), true
		for _, v := range p {
			k := math.Floor(v / h)
			placed = placed && !math.IsNaN(k) && !math.IsInf(k, 0)
			hash = (hash ^ math.Float64bits(k)) * fnvPrime
		}
		if !placed {
			hash = 0
		}
		cell, ok := cells[hash]
		if !ok {
			cell = int32(len(cells))
			cells[hash] = cell
			ix.box = append(append(ix.box, p...), p...)
		}
		ix.cellOf[i] = cell
		lo, hi := ix.bounds(int(cell))
		for j, v := range p {
			if placed {
				lo[j], hi[j] = min(lo[j], v), max(hi[j], v)
			} else {
				lo[j], hi[j] = math.Inf(-1), math.Inf(1)
			}
		}
	}
	ix.state = make([]uint8, len(cells))
	ix.memoKey = make([]uint8, memoSlots*len(cells))
	ix.memoMean = make([]float64, memoSlots*dim)
	ix.sum = make([]float64, dim)
	return ix
}

// bounds returns the lower and upper corner of a cell's bounding box.
func (ix *index) bounds(cell int) (lo, hi []float64) {
	b := ix.box[cell*2*ix.dim : (cell+1)*2*ix.dim]
	return b[:ix.dim], b[ix.dim:]
}

// shiftMean writes the mean of the points within h of c to out. It
// reports false, leaving out alone, when there is none.
func (ix *index) shiftMean(c, out []float64) bool {
	h := ix.h
	anyInside, anyStraddling := false, false
	for cell := range ix.state {
		lo, hi := ix.bounds(cell)
		// near and far sum, as dist sums, the per-axis distance from c
		// to the nearest and to the farthest point of the box. A NaN
		// fails both tests below and the cell straddles.
		var near, far float64
		for j, v := range c {
			n, f := math.Abs(v-lo[j]), math.Abs(v-hi[j])
			if f < n {
				n, f = f, n
			}
			if lo[j] <= v && v <= hi[j] {
				n = 0
			}
			near += n * n
			far += f * f
		}
		switch {
		case math.Sqrt(near) > h:
			ix.state[cell] = outside
		case math.Sqrt(far) <= h:
			ix.state[cell] = inside
			anyInside = true
		default:
			ix.state[cell] = straddling
			anyStraddling = true
		}
	}

	var memoKey []uint8
	var memoMean []float64
	if !anyStraddling {
		if !anyInside {
			return false
		}
		slot := uint64(fnvOffset)
		for _, st := range ix.state {
			slot = (slot ^ uint64(st)) * fnvPrime
		}
		at, cells := int(slot>>(64-memoBits)), len(ix.state)
		memoKey = ix.memoKey[at*cells : (at+1)*cells]
		memoMean = ix.memoMean[at*ix.dim : (at+1)*ix.dim]
		if bytes.Equal(memoKey, ix.state) {
			copy(out, memoMean)
			return true
		}
	}

	// The scan's own summation, in ascending point order, over the
	// scan's own members.
	sum := ix.sum
	clear(sum)
	var mass float64
	for i, p := range ix.points {
		switch ix.state[ix.cellOf[i]] {
		case outside:
			continue
		case straddling:
			if dist(c, p) > h {
				continue
			}
		}
		for j, v := range p {
			sum[j] += v
		}
		mass++
	}
	if mass == 0 {
		return false
	}
	for j := range sum {
		out[j] = sum[j] / mass
	}
	if !anyStraddling {
		copy(memoKey, ix.state)
		copy(memoMean, out)
	}
	return true
}

func dist(a, b []float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}
