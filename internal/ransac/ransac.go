// Package ransac implements RANSAC line fitting (Fischler & Bolles,
// reference [6] of the paper) and the paper's Recursive RANSAC
// procedure, which repeatedly peels monotonically increasing linear
// models off the (service time, D_a) scatter until no further model
// with the required positive slope can be found. Each recovered line is
// one equipment lifetime model (the paper's Model I and Model II in
// Fig. 15).
package ransac

import (
	"errors"
	"math"
	"math/rand"

	"vibepm/internal/dsp"
)

// Line is a fitted linear model y = Slope·x + Intercept.
type Line struct {
	Slope     float64
	Intercept float64
	// Inliers holds the indices (into the fitted dataset) supporting the
	// model.
	Inliers []int
	// R2 is the coefficient of determination of the least-squares refit
	// over the inliers.
	R2 float64
}

// Eval returns the model prediction at x.
func (l Line) Eval(x float64) float64 { return l.Slope*x + l.Intercept }

// Config controls a RANSAC run.
type Config struct {
	// Iterations is the number of random minimal samples to draw
	// (default 500).
	Iterations int
	// InlierThreshold is the maximum |residual| for a point to count as
	// an inlier. Required, > 0.
	InlierThreshold float64
	// MinInliers is the minimum support for an acceptable model
	// (default 2).
	MinInliers int
	// MinSlope is the least acceptable model slope. The paper's
	// recursive procedure sets it > 0 ("the predefined positive slope
	// threshold") so only ageing trends are extracted. Zero leaves the
	// bound open.
	MinSlope float64
	// Seed makes the run reproducible.
	Seed int64
}

// Errors returned by the fitting entry points.
var (
	ErrTooFewPoints = errors.New("ransac: need at least two points")
	ErrThreshold    = errors.New("ransac: inlier threshold must be positive")
	ErrNoModel      = errors.New("ransac: no acceptable model found")
)

// scoreBlock is how many points Fit scores a hypothesis on between
// checks that it can still win.
const scoreBlock = 128

// Fit runs RANSAC over the points and returns the best line by inlier
// count (ties broken by inlier RMS error). The returned model is
// refined with a least-squares fit over its inliers.
func Fit(x, y []float64, cfg Config) (Line, error) {
	if len(x) != len(y) {
		return Line{}, errors.New("ransac: x/y length mismatch")
	}
	n := len(x)
	if n < 2 {
		return Line{}, ErrTooFewPoints
	}
	if cfg.InlierThreshold <= 0 {
		return Line{}, ErrThreshold
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 500
	}
	minInliers := cfg.MinInliers
	if minInliers < 2 {
		minInliers = 2
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	var best Line
	bestCount := -1
	bestErr := math.Inf(1)
	for it := 0; it < iters; it++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j || x[i] == x[j] {
			continue
		}
		slope := (y[j] - y[i]) / (x[j] - x[i])
		if !slopeOK(slope, cfg) {
			continue
		}
		intercept := y[i] - slope*x[i]
		// Score in blocks, and abandon the hypothesis once even every
		// point left cannot lift it to the best count (a tie could still
		// win on RMS) or to minInliers. That is exact: the abandoned
		// hypothesis could not have been kept, the sum runs in the same
		// order for one that is, and the draws above come first.
		need := max(bestCount, minInliers)
		count := 0
		var sse float64
		for lo := 0; lo < n && count+n-lo >= need; lo += scoreBlock {
			hi := min(lo+scoreBlock, n)
			xs, ys := x[lo:hi], y[lo:hi]
			for k, xk := range xs {
				r := ys[k] - (slope*xk + intercept)
				if math.Abs(r) <= cfg.InlierThreshold {
					count++
					sse += r * r
				}
			}
		}
		if count < need {
			continue
		}
		rms := math.Sqrt(sse / float64(count))
		if count > bestCount || (count == bestCount && rms < bestErr) {
			bestCount = count
			bestErr = rms
			best = Line{Slope: slope, Intercept: intercept}
		}
	}
	if bestCount < minInliers {
		return Line{}, ErrNoModel
	}
	return refine(x, y, best, cfg)
}

// refine collects the inliers of model and refits by least squares,
// keeping the refit only when its slope still satisfies the bounds.
func refine(x, y []float64, model Line, cfg Config) (Line, error) {
	var xi, yi []float64
	var idx []int
	for k := range x {
		r := y[k] - model.Eval(x[k])
		if math.Abs(r) <= cfg.InlierThreshold {
			xi = append(xi, x[k])
			yi = append(yi, y[k])
			idx = append(idx, k)
		}
	}
	slope, intercept, r2, err := dsp.FitLine(xi, yi)
	if err == nil && slopeOK(slope, cfg) {
		model.Slope = slope
		model.Intercept = intercept
		model.R2 = r2
		// Re-evaluate inliers under the refined model.
		xi, yi, idx = xi[:0], yi[:0], idx[:0]
		for k := range x {
			r := y[k] - model.Eval(x[k])
			if math.Abs(r) <= cfg.InlierThreshold {
				xi = append(xi, x[k])
				yi = append(yi, y[k])
				idx = append(idx, k)
			}
		}
	}
	model.Inliers = idx
	if len(idx) < 2 {
		return Line{}, ErrNoModel
	}
	return model, nil
}

// slopeOK refuses only a slope known to be below MinSlope: a NaN passes.
func slopeOK(slope float64, cfg Config) bool {
	return cfg.MinSlope == 0 || !(slope < cfg.MinSlope)
}

// Recursive runs the paper's Recursive RANSAC: fit a model, remove its
// inliers, and repeat on the residual outliers until no model with the
// configured slope bounds and support remains, or maxModels is reached
// (maxModels <= 0 means unbounded). Inlier indices in the returned
// models refer to the original dataset.
func Recursive(x, y []float64, cfg Config, maxModels int) ([]Line, error) {
	return recursive(x, y, cfg, maxModels, Fit)
}

// recursive is Recursive over a given fit, so the tests can run it over
// a reference one.
func recursive(x, y []float64, cfg Config, maxModels int, fit func(x, y []float64, cfg Config) (Line, error)) ([]Line, error) {
	if len(x) != len(y) {
		return nil, errors.New("ransac: x/y length mismatch")
	}
	if cfg.InlierThreshold <= 0 {
		return nil, ErrThreshold
	}
	remaining := make([]int, len(x))
	for i := range remaining {
		remaining[i] = i
	}
	var models []Line
	seed := cfg.Seed
	for (maxModels <= 0 || len(models) < maxModels) && len(remaining) >= 2 {
		xs := make([]float64, len(remaining))
		ys := make([]float64, len(remaining))
		for i, idx := range remaining {
			xs[i] = x[idx]
			ys[i] = y[idx]
		}
		sub := cfg
		sub.Seed = seed
		seed++
		model, err := fit(xs, ys, sub)
		if err != nil {
			break
		}
		// Translate inlier indices back to the original dataset and
		// compute the next remaining set.
		inlierSet := make(map[int]bool, len(model.Inliers))
		orig := make([]int, len(model.Inliers))
		for i, local := range model.Inliers {
			orig[i] = remaining[local]
			inlierSet[local] = true
		}
		model.Inliers = orig
		models = append(models, model)
		var next []int
		for i, idx := range remaining {
			if !inlierSet[i] {
				next = append(next, idx)
			}
		}
		if len(next) == len(remaining) {
			break // no progress; avoid spinning
		}
		remaining = next
	}
	if len(models) == 0 {
		return nil, ErrNoModel
	}
	return models, nil
}
