package restapi

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"

	"vibepm/internal/store"
)

// Trend point budgets. The default fits a dashboard panel; the cap
// bounds the size of one response.
const (
	defaultTrendPoints = 512
	maxTrendPoints     = 4096
)

// Cache bounds. The trend body cache is keyed on the client-chosen
// point budget, so without a bound one poller sweeping points=1..4096
// would pin that many bodies per (pump, metric); the per-pump caches
// are bounded against pump-id cardinality.
const (
	maxCachedTrendBodies = 1024
	maxCachedPumpViews   = 4096
)

// respKey identifies one serialized trend response: pump, metric, and
// point budget.
type respKey struct {
	pumpID int
	metric string
	points int
}

// respTag is the state a cached pyramid or serialized response
// reflects. coldGen is 0 when the server has no cold tier; with tiering
// it is the partition list's generation, so a compaction or retention
// drop invalidates the entry exactly like a hot append does. ready is
// the fleet view's model readiness and false everywhere else.
type respTag struct {
	gen     uint64
	coldGen uint64
	ready   bool
}

// cachedResp is a fully serialized response plus the strong ETag
// clients revalidate against.
type cachedResp struct {
	etag string
	body []byte
}

// TrendPointJSON is one downsampled trend sample on the wire.
type TrendPointJSON struct {
	ServiceDays float64 `json:"service_days"`
	Value       float64 `json:"value"`
}

// TrendResponse is the trend endpoint's payload: the min-max
// downsampled metric series plus the full-resolution point count.
type TrendResponse struct {
	PumpID      int              `json:"pump_id"`
	Metric      string           `json:"metric"`
	TotalPoints int              `json:"total_points"`
	Points      []TrendPointJSON `json:"points"`
}

// etagMatch reports whether an If-None-Match header value matches etag.
// Handles the "*" wildcard, comma-separated candidate lists, and weak
// validators (W/ prefix — weak comparison suffices for a 304).
func etagMatch(header, etag string) bool {
	if header == "" {
		return false
	}
	if strings.TrimSpace(header) == "*" {
		return true
	}
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimSpace(cand)
		cand = strings.TrimPrefix(cand, "W/")
		if cand == etag {
			return true
		}
	}
	return false
}

// serveCached writes a cached serialized response, answering
// If-None-Match revalidations with 304 and no body.
func serveCached(w http.ResponseWriter, r *http.Request, ent *cachedResp) {
	w.Header().Set("ETag", ent.etag)
	if etagMatch(r.Header.Get("If-None-Match"), ent.etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(ent.body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(ent.body)
}

// handleTrend serves GET /api/v1/pumps/{id}/trend?metric=rms&points=N:
// the pump's metric trend, min-max downsampled to at most N points via
// the cached pyramid. Responses are serialized once per series
// generation; repeat requests are a map lookup plus one Write, and
// conditional requests with a current ETag cost no body at all.
func (s *Server) handleTrend(w http.ResponseWriter, r *http.Request) {
	id, err := pumpID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad pump id")
		return
	}
	metric := r.URL.Query().Get("metric")
	if metric == "" {
		metric = "rms"
	}
	// Memo-served metrics: a pyramid rebuild after a warm-up reads
	// folded scalars instead of re-running the per-record transforms.
	// Values match ColdMetrics' functions exactly.
	fn, ok := s.ingester.Live.MetricFunc(metric)
	if !ok {
		writeErr(w, http.StatusBadRequest, "unknown metric %q (want rms or vrms)", metric)
		return
	}
	points := defaultTrendPoints
	if v := r.URL.Query().Get("points"); v != "" {
		points, err = strconv.Atoi(v)
		if err != nil || points < 1 {
			writeErr(w, http.StatusBadRequest, "bad points %q", v)
			return
		}
		if points > maxTrendPoints {
			points = maxTrendPoints
		}
	}
	gen := s.measurements.Generation(id)
	coldPump := s.coldHas(id)
	if gen == 0 && !coldPump {
		writeErr(w, http.StatusNotFound, "no measurements for pump %d", id)
		return
	}
	var coldGen uint64
	if coldPump {
		coldGen = s.cold.Generation()
	}
	key := respKey{pumpID: id, metric: metric, points: points}
	ent, hit, err := s.trendResp.Get(key, respTag{gen: gen, coldGen: coldGen}, func() (*cachedResp, respTag, error) {
		var pyr *store.Pyramid
		pgen := gen
		if coldPump {
			// Tiered read: the pyramid spans the cold scalar series
			// merged under the hot series — built from the partitions'
			// resident metric streams, never from decompressed waveforms.
			pyr = s.mergedPyramid(id, metric, fn, gen, coldGen)
		} else {
			// The pyramid cache reads the generation itself (before the
			// records), so pgen is the generation the response truly
			// reflects — it may differ from gen by an in-flight append,
			// which only means one extra rebuild on the next request.
			pyr, pgen = s.pyramids.Pyramid(s.measurements, id, metric, fn)
		}
		down := pyr.Downsample(points)
		resp := TrendResponse{
			PumpID:      id,
			Metric:      metric,
			TotalPoints: pyr.Len(),
			Points:      make([]TrendPointJSON, len(down)),
		}
		for i, p := range down {
			resp.Points[i] = TrendPointJSON{ServiceDays: p.ServiceDays, Value: p.Value}
		}
		body, err := json.Marshal(resp)
		if err != nil {
			return nil, respTag{}, err
		}
		return &cachedResp{
			etag: fmt.Sprintf("\"trend-%d-%s-%d-%d-%d\"", id, metric, points, pgen, coldGen),
			body: body,
		}, respTag{gen: pgen, coldGen: coldGen}, nil
	})
	if hit {
		s.trendCacheHits.Inc()
	} else {
		s.trendCacheMisses.Inc()
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "encode trend: %v", err)
		return
	}
	serveCached(w, r, ent)
}
