package vibepm

import (
	"fmt"

	"vibepm/internal/preprocess"
	"vibepm/internal/stream"
)

// LiveState re-exports the incremental feature cache so callers wiring
// the REST server and the engine to one shared cache do not import the
// internal package path.
type LiveState = stream.LiveState

// Live returns the engine's live state, built with the engine from its
// options: hand it to the ingestion layer (restapi.WithLive, a
// stream.Ingester) so records folded at ingest are the ones the engine
// reads. After Fit or LoadModel it carries the baseline, after
// EnableFaults the detector.
func (e *Engine) Live() *LiveState { return e.live }

// EnableLive is Live under its old name, kept because the frozen
// benchmark/node.go calls it. It selects nothing: every engine is live
// from construction.
func (e *Engine) EnableLive() *LiveState { return e.live }

// WarmLive pre-folds every stored measurement into the live state —
// the recovery entry point: after OpenDurable rebuilds the measurement
// store from snapshot + WAL replay, WarmLive rebuilds the feature
// cache so the first post-restart queries are already O(new data).
// With faults enabled it classifies each pump's latest measurement, the
// one FaultStatus and Report read. Returns the number of records
// folded.
func (e *Engine) WarmLive() int { return e.live.Warm(e.measurements, 0) }

// BatchCleanTrend is the reference implementation of CleanTrend: a
// sequential, cache-free recomputation from raw waveforms, bypassing
// both the trend cache and the live state. It exists for the
// equivalence proofs — CleanTrend must match it exactly — and as the
// documentation of what the incremental path computes. It is
// O(history) per call; production code should call CleanTrend.
func (e *Engine) BatchCleanTrend(pumpID int, ageOf AgeFunc) ([]TrendPoint, error) {
	if e.baseline == nil {
		return nil, ErrNotFitted
	}
	recs := e.measurements.All(pumpID)
	if len(recs) == 0 {
		return nil, fmt.Errorf("%w: pump %d has no measurements", ErrNoData, pumpID)
	}
	trend, err := e.batchTrend(pumpID, recs, e.baseline)
	if err != nil {
		return nil, err
	}
	for i := range trend {
		trend[i].AgeDays = ageOf(pumpID, trend[i].AgeDays)
	}
	return trend, nil
}

// batchTrend recomputes one pump's cleaned trend from raw waveforms,
// one record after another. AgeDays holds the raw service day.
func (e *Engine) batchTrend(pumpID int, recs []*Record, base *Baseline) ([]TrendPoint, error) {
	validIdx, _, err := preprocess.DetectOutliers(recs, preprocess.OutlierConfig{})
	if err != nil {
		return nil, err
	}
	days := make([]float64, 0, len(validIdx))
	das := make([]float64, 0, len(validIdx))
	for _, i := range validIdx {
		if da, err := base.Da(recs[i]); err == nil {
			days = append(days, recs[i].ServiceDays)
			das = append(das, da)
		}
	}
	return e.smoothTrend(pumpID, days, das)
}
