// Package kde provides one-dimensional Gaussian kernel density
// estimation and minimum-error decision boundaries between class
// densities. The analysis engine uses it to estimate P(D_a | Zone x)
// and locate the Zone C / Zone D threshold (the paper's Fig. 11, where
// the boundary lands at D_a ≈ 0.21).
//
// Both are computed once, bit for bit: CDF calls erf only for the
// samples whose term is not exactly 0 or 1 and gives the full sum's
// bits, and DecisionBoundary spreads its grid across cores and returns
// the sequential scan's point.
package kde

import (
	"errors"
	"math"
	"sort"

	"vibepm/internal/par"
)

// Estimator is a fitted 1-D Gaussian KDE.
type Estimator struct {
	samples   []float64
	bandwidth float64
}

// Errors returned by New.
var (
	// ErrNoSamples is returned when fitting with no data.
	ErrNoSamples = errors.New("kde: no samples")
	// ErrNonFinite is returned for a NaN or infinite sample, or a
	// bandwidth that is not a finite number: the density and the
	// boundary would be NaN.
	ErrNonFinite = errors.New("kde: non-finite sample or bandwidth")
)

// New fits a Gaussian KDE to the samples. A non-positive bandwidth
// selects Silverman's rule of thumb. The sample slice is copied.
func New(samples []float64, bandwidth float64) (*Estimator, error) {
	if len(samples) == 0 {
		return nil, ErrNoSamples
	}
	for _, v := range samples {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, ErrNonFinite
		}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	if bandwidth <= 0 {
		bandwidth = SilvermanBandwidth(s)
	}
	if bandwidth <= 0 {
		// Degenerate data (all samples identical): fall back to a small
		// positive width so the density stays integrable.
		bandwidth = 1e-6
	}
	if math.IsNaN(bandwidth) || math.IsInf(bandwidth, 0) {
		return nil, ErrNonFinite
	}
	return &Estimator{samples: s, bandwidth: bandwidth}, nil
}

// SilvermanBandwidth returns Silverman's rule-of-thumb bandwidth
// 0.9 · min(σ, IQR/1.34) · n^(−1/5) for the (sorted or unsorted)
// samples.
func SilvermanBandwidth(samples []float64) float64 {
	n := len(samples)
	if n < 2 {
		return 0
	}
	var mean float64
	for _, v := range samples {
		mean += v
	}
	mean /= float64(n)
	var variance float64
	for _, v := range samples {
		d := v - mean
		variance += d * d
	}
	variance /= float64(n - 1)
	sigma := math.Sqrt(variance)

	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	iqr := quantileSorted(s, 0.75) - quantileSorted(s, 0.25)
	spread := sigma
	if iqr > 0 && iqr/1.34 < spread {
		spread = iqr / 1.34
	}
	if spread == 0 {
		return 0
	}
	return 0.9 * spread * math.Pow(float64(n), -0.2)
}

func quantileSorted(s []float64, q float64) float64 {
	n := len(s)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= n {
		return s[n-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}

// Bandwidth returns the kernel bandwidth in use.
func (e *Estimator) Bandwidth() float64 { return e.bandwidth }

// N returns the number of fitted samples.
func (e *Estimator) N() int { return len(e.samples) }

// Density evaluates the estimated probability density at x.
func (e *Estimator) Density(x float64) float64 {
	h := e.bandwidth
	norm := 1 / (float64(len(e.samples)) * h * math.Sqrt(2*math.Pi))
	var sum float64
	// Samples are sorted; only those within 6h contribute materially.
	lo := sort.SearchFloat64s(e.samples, x-6*h)
	hi := sort.SearchFloat64s(e.samples, x+6*h)
	for _, s := range e.samples[lo:hi] {
		u := (x - s) / h
		sum += math.Exp(-0.5 * u * u)
	}
	return norm * sum
}

// CDF evaluates the estimated cumulative distribution at x: the mean
// over the samples s of ½(1 + erf((x−s)/(h√2))), summed in sample
// order. The window [lo, hi) is found with the sum's own z: below it
// z ≥ 6, where math.Erf is exactly 1 and each term exactly 1, so the
// sum of those lo terms is exactly lo; above it z ≤ −6, where each
// term is exactly 0 and adding it leaves the sum as it is.
func (e *Estimator) CDF(x float64) float64 {
	h := e.bandwidth
	z := func(s float64) float64 { return (x - s) / (h * math.Sqrt2) }
	lo := sort.Search(len(e.samples), func(i int) bool { return !(z(e.samples[i]) >= 6) })
	hi := lo + sort.Search(len(e.samples)-lo, func(i int) bool { return z(e.samples[lo+i]) <= -6 })
	sum := float64(lo)
	for _, s := range e.samples[lo:hi] {
		sum += 0.5 * (1 + math.Erf(z(s)))
	}
	return sum / float64(len(e.samples))
}

// Grid evaluates the density on n evenly spaced points covering
// [lo, hi] and returns the x values and densities.
func (e *Estimator) Grid(lo, hi float64, n int) (xs, ys []float64) {
	if n < 2 {
		n = 2
	}
	xs = make([]float64, n)
	ys = make([]float64, n)
	step := (hi - lo) / float64(n-1)
	for i := 0; i < n; i++ {
		xs[i] = lo + float64(i)*step
		ys[i] = e.Density(xs[i])
	}
	return xs, ys
}

// Support returns the sample range widened by 3 bandwidths on each
// side — a sensible plotting/search interval.
func (e *Estimator) Support() (lo, hi float64) {
	lo = e.samples[0] - 3*e.bandwidth
	hi = e.samples[len(e.samples)-1] + 3*e.bandwidth
	return lo, hi
}

// DecisionBoundary finds the threshold x* that minimizes the total
// misclassification error between two classes when "below" samples are
// drawn from a and "above" samples from b, weighted by the class priors
// (sample counts):
//
//	err(x) = wa·P_a(X > x) + wb·P_b(X ≤ x)
//
// The search scans a dense grid over the union support and returns the
// first grid point of least error. This is the optimal-boundary
// computation behind Fig. 11's 0.21 threshold between Zone BC and
// Zone D. The grid is cut into boundaryChunks contiguous chunks that
// run across cores; each keeps its own first minimum, and the chunks
// are combined in grid order with the same strict <, so the result is
// the sequential scan's whatever the core count.
func DecisionBoundary(a, b *Estimator) float64 {
	loA, hiA := a.Support()
	loB, hiB := b.Support()
	lo, hi := math.Min(loA, loB), math.Max(hiA, hiB)
	wa := float64(a.N()) / float64(a.N()+b.N())
	wb := 1 - wa
	const steps = 2000
	type best struct{ x, err float64 }
	chunks := par.Map(boundaryChunks, 0, func(c int) best {
		bc := best{lo, math.Inf(1)}
		for i := c * (steps + 1) / boundaryChunks; i < (c+1)*(steps+1)/boundaryChunks; i++ {
			x := lo + (hi-lo)*float64(i)/steps
			errRate := wa*(1-a.CDF(x)) + wb*b.CDF(x)
			if errRate < bc.err {
				bc = best{x, errRate}
			}
		}
		return bc
	})
	bestX, bestErr := lo, math.Inf(1)
	for _, bc := range chunks {
		if bc.err < bestErr {
			bestX, bestErr = bc.x, bc.err
		}
	}
	return bestX
}

// boundaryChunks is how many contiguous pieces DecisionBoundary cuts
// its grid into: a fixed count, so the chunks do not depend on
// GOMAXPROCS, and enough of them that uneven erf windows still
// balance across cores.
const boundaryChunks = 16
