package core

import (
	"sort"

	"vibepm/internal/dsp"
)

// FuseTrends combines D_a trends from multiple sensors attached to the
// same equipment — the extension the paper's §III-B defers to future
// work ("we leave the extension from single sensor to multiple
// sensors"). Points whose ages fall within toleranceDays of each other
// are treated as simultaneous observations and fused with the median,
// which suppresses per-sensor noise and any single sensor's residual
// offset faults without being dragged by them.
//
// Each input trend must be age-ordered (CleanTrend's output is). The
// fused trend contains one point per alignment group, age-ordered.
func FuseTrends(trends [][]TrendPoint, toleranceDays float64) ([]TrendPoint, error) {
	switch len(trends) {
	case 0:
		return nil, ErrNoPoints
	case 1:
		return append([]TrendPoint(nil), trends[0]...), nil
	}
	if toleranceDays <= 0 {
		toleranceDays = 0.5
	}
	// Pool all points, sorted by age, then group greedily.
	var pool []TrendPoint
	for _, t := range trends {
		pool = append(pool, t...)
	}
	if len(pool) == 0 {
		return nil, ErrNoPoints
	}
	sort.Slice(pool, func(i, j int) bool { return pool[i].AgeDays < pool[j].AgeDays })
	var out []TrendPoint
	groupStart := 0
	flush := func(end int) {
		if end <= groupStart {
			return
		}
		ages := make([]float64, 0, end-groupStart)
		das := make([]float64, 0, end-groupStart)
		for i := groupStart; i < end; i++ {
			ages = append(ages, pool[i].AgeDays)
			das = append(das, pool[i].Da)
		}
		out = append(out, TrendPoint{
			AgeDays: dsp.Percentile(ages, 50),
			Da:      dsp.Percentile(das, 50),
		})
	}
	for i := 1; i < len(pool); i++ {
		if pool[i].AgeDays-pool[groupStart].AgeDays > toleranceDays {
			flush(i)
			groupStart = i
		}
	}
	flush(len(pool))
	return out, nil
}
