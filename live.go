package vibepm

import (
	"fmt"

	"vibepm/internal/stream"
)

// LiveState re-exports the incremental feature cache so callers wiring
// the REST server and the engine to one shared cache do not import the
// internal package path.
type LiveState = stream.LiveState

// EnableLive switches the engine onto the incremental analysis path:
// a fresh live state, configured from the engine's options, is
// attached and returned so the ingestion layer (REST ingest) can fold
// into the same cache. Analysis results are bit-identical to
// the batch path; only the cost model changes — per-record transforms
// run once, at ingest or first touch, instead of on every trend
// rebuild. If the engine is already fitted the baseline is installed
// immediately.
func (e *Engine) EnableLive() *LiveState {
	if e.live == nil {
		e.live = stream.NewLiveState(stream.Config{Harmonic: e.opts.Harmonic})
		if e.baseline != nil {
			e.live.SetBaseline(e.baseline)
		}
		if e.detector != nil {
			e.live.SetFaultDetector(e.detector)
		}
	}
	return e.live
}

// Live returns the attached live state, or nil when the engine runs
// pure batch analysis.
func (e *Engine) Live() *LiveState { return e.live }

// WarmLive pre-folds every stored measurement into the live state —
// the recovery entry point: after OpenDurable rebuilds the measurement
// store from snapshot + WAL replay, WarmLive rebuilds the feature
// cache so the first post-restart queries are already O(new data).
// Returns the number of records folded; 0 when no live state is
// attached.
func (e *Engine) WarmLive() int {
	if e.live == nil {
		return 0
	}
	return e.live.Warm(e.measurements, 0)
}

// BatchCleanTrend is the reference implementation of CleanTrend: a
// sequential, cache-free recomputation from raw waveforms, bypassing
// both the trend cache and the live state. It exists for the
// batch-equivalence proof harness — live results must match it exactly
// — and as the fallback documentation of what the incremental path is
// equivalent to. It is O(history) per call; production code should
// call CleanTrend.
func (e *Engine) BatchCleanTrend(pumpID int, ageOf AgeFunc) ([]TrendPoint, error) {
	if e.baseline == nil {
		return nil, ErrNotFitted
	}
	recs := e.measurements.All(pumpID)
	if len(recs) == 0 {
		return nil, fmt.Errorf("%w: pump %d has no measurements", ErrNoData, pumpID)
	}
	trend, err := e.batchTrend(pumpID, recs, e.baseline, 1)
	if err != nil {
		return nil, err
	}
	for i := range trend {
		trend[i].AgeDays = ageOf(pumpID, trend[i].AgeDays)
	}
	return trend, nil
}
