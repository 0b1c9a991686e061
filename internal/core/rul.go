package core

import (
	"errors"
	"math"
	"sort"

	"vibepm/internal/dsp"
	"vibepm/internal/ransac"
)

// TrendPoint is one (unit age, D_a) observation used by the RUL layer.
type TrendPoint struct {
	// AgeDays is the equipment's age since installation (x_mn of the
	// paper), known from the factory database.
	AgeDays float64
	// Da is the peak harmonic distance from the Zone A baseline.
	Da float64
}

// LifetimeModels is the set of linear ageing models
// D_a = b_1·x + b_0 discovered by recursive RANSAC over the pooled
// fleet scatter (the paper's Fig. 15, equation (4)).
type LifetimeModels struct {
	// Models are ordered by ascending slope (Model I first — long-term
	// operation ages slowest).
	Models []ransac.Line
	// ThresholdDa is the Zone C/D decision boundary the projections
	// cross (the paper's 0.21).
	ThresholdDa float64
}

// Lifetime-model discovery settings, matched to the D_a scale.
const (
	// lifetimeInlierThreshold is RANSAC's residual tolerance: wide
	// enough to absorb the step texture D_a shows as individual defect
	// tones emerge, narrow enough to split the two ageing populations.
	lifetimeInlierThreshold = 0.03
	// lifetimeMinInliers is the floor of the minimum support per model,
	// which is otherwise 10% of the points.
	lifetimeMinInliers = 20
	// lifetimeMinSlope rejects non-ageing models (the paper's
	// "predefined positive slope threshold"), per day.
	lifetimeMinSlope = 1e-5
	// lifetimeIterations is the number of samples per RANSAC fit.
	lifetimeIterations = 2000
	// lifetimeSeed fixes the random sampling.
	lifetimeSeed = 0
)

// ErrNoPoints is returned when learning with no observations.
var ErrNoPoints = errors.New("core: no trend points")

// LearnLifetimeModels pools the fleet's trend points and recursively
// extracts monotonically increasing linear models until none remains.
func LearnLifetimeModels(points []TrendPoint, thresholdDa float64) (*LifetimeModels, error) {
	if len(points) == 0 {
		return nil, ErrNoPoints
	}
	x := make([]float64, len(points))
	y := make([]float64, len(points))
	for i, p := range points {
		x[i] = p.AgeDays
		y[i] = p.Da
	}
	models, err := ransac.Recursive(x, y, ransac.Config{
		InlierThreshold: lifetimeInlierThreshold,
		MinInliers:      max(len(points)/10, lifetimeMinInliers),
		MinSlope:        lifetimeMinSlope,
		Iterations:      lifetimeIterations,
		Seed:            lifetimeSeed,
	}, 0) // unbounded: recurse until no acceptable model remains
	if err != nil {
		return nil, err
	}
	sort.Slice(models, func(i, j int) bool { return models[i].Slope < models[j].Slope })
	return &LifetimeModels{Models: models, ThresholdDa: thresholdDa}, nil
}

// Assign selects the most suitable lifetime model for one pump's trend:
// the model with the smallest root-mean-square residual over the pump's
// points. It returns the model index and that RMS.
func (l *LifetimeModels) Assign(trend []TrendPoint) (int, float64, error) {
	if len(trend) == 0 {
		return 0, 0, ErrNoPoints
	}
	if len(l.Models) == 0 {
		return 0, 0, errors.New("core: no lifetime models")
	}
	best, bestRMS := -1, math.Inf(1)
	for i, m := range l.Models {
		var sse float64
		for _, p := range trend {
			r := p.Da - m.Eval(p.AgeDays)
			sse += r * r
		}
		rms := math.Sqrt(sse / float64(len(trend)))
		if rms < bestRMS {
			best, bestRMS = i, rms
		}
	}
	return best, bestRMS, nil
}

// PredictRUL projects the assigned model forward from the pump's
// current age and returns the days remaining until D_a crosses the
// Zone D threshold. Negative values mean the model says the pump is
// already past the boundary (the paper's Table IV shows −87 and −3 for
// pumps 2 and 11).
func (l *LifetimeModels) PredictRUL(modelIdx int, currentAgeDays float64) (float64, error) {
	if modelIdx < 0 || modelIdx >= len(l.Models) {
		return 0, errors.New("core: model index out of range")
	}
	m := l.Models[modelIdx]
	if m.Slope <= 0 {
		return 0, errors.New("core: model slope not positive")
	}
	crossAge := (l.ThresholdDa - m.Intercept) / m.Slope
	return crossAge - currentAgeDays, nil
}

// PredictRULForTrend is the full per-pump pipeline: assign the best
// model, then project from the *latest* observation. The trend must be
// in time order (CleanTrend's output is); the latest point's age — not
// the maximum age — is the projection anchor, because a mid-window
// replacement resets the unit age and the old unit's final points would
// otherwise masquerade as the current state (the paper's pump 7:
// positive RUL after its breakdown replacement).
func (l *LifetimeModels) PredictRULForTrend(trend []TrendPoint) (rul float64, modelIdx int, err error) {
	modelIdx, _, err = l.Assign(trend)
	if err != nil {
		return 0, 0, err
	}
	current := trend[len(trend)-1].AgeDays
	rul, err = l.PredictRUL(modelIdx, current)
	return rul, modelIdx, err
}

// TrendRUL is the sequential-model extension the paper sketches as
// future work: instead of pooled global lines, a per-pump robust local
// trend (Theil–Sen slope over the smoothed recent window) is projected
// to the threshold. It needs more data per pump but adapts to pumps
// whose ageing deviates from both global models.
type TrendRUL struct {
	// ThresholdDa is the Zone D boundary.
	ThresholdDa float64
	// Window is the number of most recent points used (default 50).
	Window int
	// SmoothAlpha is the EWMA factor applied before slope estimation
	// (default 0.3).
	SmoothAlpha float64
}

// Predict estimates RUL in days from one pump's trend, or an error when
// the local slope is not positive (no ageing signal yet).
func (t TrendRUL) Predict(trend []TrendPoint) (float64, error) {
	if len(trend) < 3 {
		return 0, errors.New("core: need at least 3 points for a local trend")
	}
	window := t.Window
	if window <= 0 {
		window = 50
	}
	alpha := t.SmoothAlpha
	if alpha <= 0 || alpha > 1 {
		alpha = 0.3
	}
	pts := append([]TrendPoint(nil), trend...)
	sort.Slice(pts, func(i, j int) bool { return pts[i].AgeDays < pts[j].AgeDays })
	if len(pts) > window {
		pts = pts[len(pts)-window:]
	}
	da := make([]float64, len(pts))
	for i, p := range pts {
		da[i] = p.Da
	}
	smooth := dsp.EWMA(da, alpha)
	// Theil–Sen estimator: median pairwise slope.
	var slopes []float64
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			dx := pts[j].AgeDays - pts[i].AgeDays
			if dx == 0 {
				continue
			}
			slopes = append(slopes, (smooth[j]-smooth[i])/dx)
		}
	}
	if len(slopes) == 0 {
		return 0, errors.New("core: degenerate trend (no age spread)")
	}
	slope := dsp.Percentile(slopes, 50)
	if slope <= 0 {
		return 0, errors.New("core: local trend is not increasing")
	}
	lastDa := smooth[len(smooth)-1]
	return (t.ThresholdDa - lastDa) / slope, nil
}
