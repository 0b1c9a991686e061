package restapi

import (
	"net/http"

	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// ColdMetrics returns the scalar metric set the trend endpoint serves,
// in the form the compactor persists per partition. A vibed deployment
// passes these as TieredOptions.Metrics so cold trend reads are
// bit-identical to the hot path: these are the pure functions the live
// state's MetricFunc memoizes.
func ColdMetrics() []store.ColdMetric {
	return []store.ColdMetric{
		{Name: "rms", Fn: transform.RMS},
		{Name: "vrms", Fn: func(r *store.Record) float64 {
			return transform.VelocityRMS(r, transform.ISOBandLoHz, transform.ISOBandHiHz)
		}},
	}
}

// mergeSeries merges the cold and hot views of one pump's metric
// series, both already in ascending time order. The hot point wins when
// both tiers hold the same service time — after a crash between a
// partition rename and the following snapshot, the overlapping records
// exist in both tiers until the next compaction evicts them, and they
// must not appear twice in a trend.
func mergeSeries(cold, hot []store.SeriesPoint) []store.SeriesPoint {
	if len(cold) == 0 {
		return hot
	}
	if len(hot) == 0 {
		return cold
	}
	out := make([]store.SeriesPoint, 0, len(cold)+len(hot))
	i, j := 0, 0
	for i < len(cold) && j < len(hot) {
		switch {
		case cold[i].ServiceDays < hot[j].ServiceDays:
			out = append(out, cold[i])
			i++
		case cold[i].ServiceDays > hot[j].ServiceDays:
			out = append(out, hot[j])
			j++
		default:
			out = append(out, hot[j])
			i++
			j++
		}
	}
	out = append(out, cold[i:]...)
	out = append(out, hot[j:]...)
	return out
}

// mergedKey identifies one cached merged (cold+hot) pyramid.
type mergedKey struct {
	pumpID int
	metric string
}

// mergedPyramid returns the pyramid over pump id's metric series across
// both tiers, rebuilding only when the hot series or the partition list
// changed — the same generation-keyed discipline as the hot-only
// TrendCache.
func (s *Server) mergedPyramid(id int, metric string, fn func(*store.Record) float64, hotGen, coldGen uint64) *store.Pyramid {
	tag := respTag{gen: hotGen, coldGen: coldGen}
	pyr, _, _ := s.mergedPyrs.Get(mergedKey{pumpID: id, metric: metric}, tag, func() (*store.Pyramid, respTag, error) {
		hot := store.ExtractSeries(s.measurements.All(id), fn)
		return store.NewPyramid(mergeSeries(s.cold.TrendSeries(id, metric), hot)), tag, nil
	})
	return pyr
}

// StorageStatus is the GET /api/v1/storage/status payload: the hot
// store's footprint plus, when tiering is enabled, the cold tier's
// partition inventory.
type StorageStatus struct {
	HotRecords int              `json:"hot_records"`
	HotPumps   int              `json:"hot_pumps"`
	Tiered     bool             `json:"tiered"`
	Cold       *store.ColdStats `json:"cold,omitempty"`
}

// handleStorageStatus serves the storage inventory both tiers report.
func (s *Server) handleStorageStatus(w http.ResponseWriter, _ *http.Request) {
	st := StorageStatus{
		HotRecords: s.measurements.Len(),
		HotPumps:   len(s.measurements.Pumps()),
	}
	if s.cold != nil {
		st.Tiered = true
		cs := s.cold.Stats()
		st.Cold = &cs
	}
	writeJSON(w, http.StatusOK, st)
}

// coldHas reports whether the cold tier holds any records for pump id.
func (s *Server) coldHas(id int) bool {
	return s.cold != nil && s.cold.HasPump(id)
}
