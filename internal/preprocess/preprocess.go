// Package preprocess is the data preprocessing layer of the paper's
// Fig. 7 architecture (§IV-A): it detects and removes invalid
// measurements (sensor offset drift and abrupt offset jumps) by mean
// shift clustering over the per-measurement acceleration averages,
// smooths feature series with a time-window moving average, and
// constructs the clean (service time, feature) matrices the RUL layer
// consumes.
package preprocess

import (
	"errors"
	"math"

	"vibepm/internal/dsp"
	"vibepm/internal/meanshift"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// Averages returns the per-measurement mean acceleration on each axis —
// the zero-offset trace of the paper's Fig. 8, whose stability indicates
// measurement integrity.
func Averages(recs []*store.Record) [][]float64 {
	out := make([][]float64, len(recs))
	flat := make([]float64, 3*len(recs))
	for i, rec := range recs {
		// The integrity scan needs only the per-axis means; skip the
		// demeaned-series materialization of the full transform.
		offsets := transform.Offsets(rec)
		row := flat[3*i : 3*i+3 : 3*i+3]
		row[0], row[1], row[2] = offsets[0], offsets[1], offsets[2]
		out[i] = row
	}
	return out
}

// OutlierConfig has no fields: the mean shift kernel radius is always
// adaptiveBandwidth's. The type stays only because the frozen
// benchmark/ passes OutlierConfig{} to DetectOutliers and
// DetectOutliersPoints, which ignore it.
type OutlierConfig struct{}

// ErrNoMeasurements is returned when there is nothing to analyse.
var ErrNoMeasurements = errors.New("preprocess: no measurements")

// maxClusterPoints caps the series mean shift runs on: a longer one is
// clustered on a deterministic stride subsample and every point is
// assigned to the nearest discovered mode. The cap is not there for
// cost; removing it changes which measurements a pump of more than
// 1,500 points has marked invalid.
const maxClusterPoints = 1500

// DetectOutliers clusters the 3-D acceleration averages with mean shift
// and flags every measurement outside the dominant cluster as invalid —
// the white-box markings of Fig. 8(b). It returns the indices of valid
// and invalid records, each ascending.
func DetectOutliers(recs []*store.Record, _ OutlierConfig) (valid, invalid []int, err error) {
	if len(recs) == 0 {
		return nil, nil, ErrNoMeasurements
	}
	return DetectOutliersPoints(Averages(recs), OutlierConfig{})
}

// DetectOutliersPoints is DetectOutliers over already-extracted
// per-measurement average points — the entry point of the incremental
// analysis path, which serves the averages from its per-record feature
// cache instead of re-touching raw waveforms. The clustering is
// identical to DetectOutliers over the records the points came from.
func DetectOutliersPoints(points [][]float64, _ OutlierConfig) (valid, invalid []int, err error) {
	if len(points) == 0 {
		return nil, nil, ErrNoMeasurements
	}
	bw := adaptiveBandwidth(points)
	clusterInput := points
	var stride int
	if len(points) > maxClusterPoints {
		stride = (len(points) + maxClusterPoints - 1) / maxClusterPoints
		clusterInput = make([][]float64, 0, maxClusterPoints)
		for i := 0; i < len(points); i += stride {
			clusterInput = append(clusterInput, points[i])
		}
	}
	res, err := meanshift.Cluster(clusterInput, meanshift.Config{Bandwidth: bw})
	if err != nil {
		return nil, nil, err
	}
	labels := res.Labels
	sizes := res.Sizes
	if stride > 0 {
		// Assign every point (subsampled or not) to its nearest mode
		// and recount cluster sizes over the full series.
		labels = make([]int, len(points))
		sizes = make([]int, len(res.Centers))
		for i, p := range points {
			best, bestDist := 0, math.Inf(1)
			for ci, c := range res.Centers {
				var d float64
				for k := range p {
					diff := p[k] - c[k]
					d += diff * diff
				}
				if d < bestDist {
					best, bestDist = ci, d
				}
			}
			labels[i] = best
			sizes[best]++
		}
	}
	main, mainSize := 0, -1
	for i, s := range sizes {
		if s > mainSize {
			main, mainSize = i, s
		}
	}
	for i, label := range labels {
		if label == main {
			valid = append(valid, i)
		} else {
			invalid = append(invalid, i)
		}
	}
	return valid, invalid, nil
}

// adaptiveBandwidth derives the mean shift kernel radius in g from the
// within-regime noise of the offset trace: 8× the median norm of
// consecutive differences, floored at 0.05 g. The median is robust to
// the level shifts (drift, offset steps) we are trying to detect — a
// deviation statistic around the global median would be inflated by
// exactly those shifts.
func adaptiveBandwidth(points [][]float64) float64 {
	const floor = 0.05
	if len(points) < 2 {
		return floor
	}
	diffs := make([]float64, 0, len(points)-1)
	for i := 1; i < len(points); i++ {
		var s float64
		for d := range points[i] {
			diff := points[i][d] - points[i-1][d]
			s += diff * diff
		}
		diffs = append(diffs, math.Sqrt(s))
	}
	bw := 8 * dsp.Percentile(diffs, 50)
	if bw < floor {
		bw = floor
	}
	return bw
}

// SmoothSeries applies the paper's default noise reduction to a feature
// time series: a moving average over a sliding time window (1 day by
// default). days and values are parallel, ordered by time.
func SmoothSeries(days, values []float64, windowDays float64) []float64 {
	if len(days) != len(values) {
		panic("preprocess: SmoothSeries length mismatch")
	}
	if windowDays <= 0 {
		windowDays = 1
	}
	n := len(values)
	out := make([]float64, n)
	lo := 0
	var sum float64
	hi := 0
	for i := 0; i < n; i++ {
		// Window [days[i]-w/2, days[i]+w/2].
		for hi < n && days[hi] <= days[i]+windowDays/2 {
			sum += values[hi]
			hi++
		}
		for lo < n && days[lo] < days[i]-windowDays/2 {
			sum -= values[lo]
			lo++
		}
		count := hi - lo
		if count <= 0 {
			out[i] = values[i]
			continue
		}
		out[i] = sum / float64(count)
	}
	return out
}
