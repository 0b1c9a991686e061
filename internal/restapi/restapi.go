// Package restapi is the data retrieval layer of the paper's Fig. 7
// architecture: a RESTful JSON API that the transformation and analysis
// layers (or external dashboards) use to pull measurements, labels, and
// the current analysis period from the databases.
package restapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strconv"
	"sync"

	"vibepm"
	"vibepm/internal/gencache"
	"vibepm/internal/obs"
	"vibepm/internal/store"
	"vibepm/internal/stream"
	"vibepm/internal/transform"
)

// DefaultMaxBodyBytes caps ingest request bodies: 8 MiB fits the
// largest sensor capture (3 axes × 1 Mi samples × 2 bytes, base64)
// with headroom, while bounding what one client can make the server
// buffer.
const DefaultMaxBodyBytes = 8 << 20

// Server wires the stores into an http.Handler.
type Server struct {
	measurements *store.Measurements
	labels       *store.Labels
	periods      *store.PeriodManager
	mux          *http.ServeMux
	metrics      *obs.Registry
	maxBodyBytes int64
	// ingester is the write seam: the plain or durable store every
	// accepted POST lands in, and the live state it is folded into —
	// the one the trend endpoint reads.
	ingester stream.Ingester
	cold     *store.ColdStore
	faults   *vibepm.Engine

	// trendResp and faultResp hold fully serialized responses keyed on
	// the series generation (and, tiered, the partition list's), so an
	// append invalidates exactly the touched pump.
	trendResp *gencache.Cache[respKey, respTag, *cachedResp]
	faultResp *gencache.Cache[int, respTag, *cachedResp]

	ingestAccepted   *obs.Counter
	ingestDuplicates *obs.Counter
	ingestRejected   *obs.Counter
	// The body caches' hit counters: one per serialized response
	// served from trendResp / faultResp, one miss per body built.
	trendCacheHits   *obs.Counter
	trendCacheMisses *obs.Counter
	faultCacheHits   *obs.Counter
	faultCacheMisses *obs.Counter
}

// Option customizes a Server.
type Option func(*Server)

// WithMetrics routes the server's HTTP and ingest metrics (and the
// /api/v1/metrics exposition) to reg instead of obs.Default.
func WithMetrics(reg *obs.Registry) Option {
	return func(s *Server) { s.metrics = reg }
}

// WithMaxBodyBytes overrides the ingest body cap (n <= 0 keeps the
// default).
func WithMaxBodyBytes(n int64) Option {
	return func(s *Server) {
		if n > 0 {
			s.maxBodyBytes = n
		}
	}
}

// WithDurable routes POST /api/v1/measurements through the durable
// store: a 201 is returned only after the record's WAL append
// succeeded, and a failed log (disk gone, WAL wedged) answers 503
// instead of acking data that would not survive a restart. When the
// durable store is tiered, its cold partition store is attached to the
// read path too: trend queries merge the cold scalar series under the
// hot series, and GET /api/v1/storage/status reports both tiers.
func WithDurable(d *store.Durable) Option {
	return func(s *Server) {
		s.ingester.Durable = d
		if c := d.Cold(); c != nil {
			s.cold = c
		}
	}
}

// WithLive shares a live state — the engine's, Engine.Live — in place
// of the one New gives the server, so a record folded at ingest is the
// one the analysis routes read and the two never fold it twice.
func WithLive(ls *stream.LiveState) Option {
	return func(s *Server) { s.ingester.Live = ls }
}

// New builds the API server. labels and periods may be nil, disabling
// the corresponding endpoints. The server has a live state of its own
// unless WithLive shares one: each accepted ingest folds its record into
// it, and the trend endpoint reads its per-record metrics from it.
func New(m *store.Measurements, l *store.Labels, p *store.PeriodManager, opts ...Option) *Server {
	s := &Server{
		measurements: m, labels: l, periods: p,
		ingester:     stream.Ingester{Store: m, Live: stream.NewLiveState(stream.Config{})},
		mux:          http.NewServeMux(),
		metrics:      obs.Default,
		maxBodyBytes: DefaultMaxBodyBytes,
		trendResp:    gencache.New[respKey, respTag, *cachedResp](maxCachedTrendBodies),
		faultResp:    gencache.New[int, respTag, *cachedResp](maxCachedPumpViews),
	}
	for _, opt := range opts {
		opt(s)
	}
	s.ingestAccepted = s.metrics.Counter("vibepm_ingest_accepted_total")
	s.ingestDuplicates = s.metrics.Counter("vibepm_ingest_duplicates_total")
	s.ingestRejected = s.metrics.Counter("vibepm_ingest_rejected_total")
	s.trendCacheHits = s.metrics.Counter("vibepm_api_trend_cache_hits_total")
	s.trendCacheMisses = s.metrics.Counter("vibepm_api_trend_cache_misses_total")
	s.faultCacheHits = s.metrics.Counter("vibepm_api_fault_cache_hits_total")
	s.faultCacheMisses = s.metrics.Counter("vibepm_api_fault_cache_misses_total")
	s.handle("GET /api/v1/pumps", s.handlePumps)
	s.handle("GET /api/v1/pumps/{id}/measurements", s.handleMeasurements)
	s.handle("GET /api/v1/pumps/{id}/trend", s.handleTrend)
	s.handle("POST /api/v1/measurements", s.handleIngest)
	s.handle("GET /api/v1/pumps/{id}/psd", s.handlePSD)
	s.handle("GET /api/v1/pumps/{id}/faults", s.handleFaults)
	s.handle("GET /api/v1/labels", s.handleLabels)
	s.handle("GET /api/v1/period", s.handleGetPeriod)
	s.handle("PUT /api/v1/period", s.handlePutPeriod)
	s.handle("GET /api/v1/storage/status", s.handleStorageStatus)
	s.handle("GET /api/v1/healthz", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	// The scrape endpoint itself is served uninstrumented so a scrape
	// does not perturb the series it reads.
	s.mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	return s
}

// handle registers h under pattern with the per-route metrics
// middleware.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, instrumentHandler(s.metrics, pattern, h))
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// jsonBufPool recycles response encode buffers across requests.
// Buffers that grew past maxPooledBufBytes (a raw-samples response can
// reach megabytes) are dropped instead of pinned in the pool.
var jsonBufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

const maxPooledBufBytes = 1 << 20

// writeJSON encodes v into a pooled buffer before committing any
// status line, so an encoding failure becomes a clean 500 instead of a
// 200 with a truncated body, and successful responses carry an exact
// Content-Length.
func writeJSON(w http.ResponseWriter, code int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		slog.Error("api response encode failed", "err", err)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusInternalServerError)
		_, _ = io.WriteString(w, "{\"error\":\"response encoding failed\"}\n")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	if _, err := w.Write(buf.Bytes()); err != nil {
		slog.Warn("api response write failed", "err", err)
	}
	if buf.Cap() <= maxPooledBufBytes {
		jsonBufPool.Put(buf)
	}
}

func writeErr(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handlePumps(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"pumps": s.measurements.Pumps()})
}

// parseRange extracts the from/to query bounds, defaulting to the
// current analysis period (or everything when no period manager is
// configured).
func (s *Server) parseRange(r *http.Request) (from, to float64, err error) {
	from, to = 0, 1e18
	if s.periods != nil {
		p := s.periods.Current()
		from, to = p.StartDays, p.EndDays
	}
	if v := r.URL.Query().Get("from"); v != "" {
		from, err = strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad from: %w", err)
		}
	}
	if v := r.URL.Query().Get("to"); v != "" {
		to, err = strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("bad to: %w", err)
		}
	}
	// ParseFloat accepts "NaN" and "Inf"; NaN bounds poison every
	// comparison downstream, and an inverted range is a client bug that
	// used to masquerade as an empty result.
	if math.IsNaN(from) || math.IsNaN(to) {
		return 0, 0, fmt.Errorf("range bounds must not be NaN")
	}
	if from > to {
		return 0, 0, fmt.Errorf("inverted range: from %g > to %g", from, to)
	}
	return from, to, nil
}

func pumpID(r *http.Request) (int, error) {
	return strconv.Atoi(r.PathValue("id"))
}

// MeasurementMeta is the wire representation of one measurement. Raw
// samples ride along only when raw=1 is requested.
type MeasurementMeta struct {
	PumpID       int        `json:"pump_id"`
	ServiceDays  float64    `json:"service_days"`
	SampleRateHz float64    `json:"sample_rate_hz"`
	Samples      int        `json:"samples"`
	RMS          float64    `json:"rms_g"`
	Raw          [][]int16  `json:"raw,omitempty"`
	Offsets      [3]float64 `json:"offsets_g"`
}

func (s *Server) handleMeasurements(w http.ResponseWriter, r *http.Request) {
	id, err := pumpID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad pump id")
		return
	}
	from, to, err := s.parseRange(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	includeRaw := r.URL.Query().Get("raw") == "1"
	recs := s.measurements.Query(id, from, to)
	out := make([]MeasurementMeta, 0, len(recs))
	for _, rec := range recs {
		meta := MeasurementMeta{
			PumpID:       rec.PumpID,
			ServiceDays:  rec.ServiceDays,
			SampleRateHz: rec.SampleRateHz,
			Samples:      rec.Samples(),
			RMS:          transform.RMS(rec),
			Offsets:      transform.Offsets(rec),
		}
		if includeRaw {
			meta.Raw = [][]int16{rec.Raw[0], rec.Raw[1], rec.Raw[2]}
		}
		out = append(out, meta)
	}
	writeJSON(w, http.StatusOK, map[string]any{"measurements": out})
}

// PSDResponse carries one measurement's combined PSD feature.
type PSDResponse struct {
	ServiceDays float64   `json:"service_days"`
	Freq        []float64 `json:"freq_hz"`
	PSD         []float64 `json:"psd_g2_per_hz"`
}

func (s *Server) handlePSD(w http.ResponseWriter, r *http.Request) {
	id, err := pumpID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad pump id")
		return
	}
	from, to, err := s.parseRange(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	recs := s.measurements.Query(id, from, to)
	if len(recs) == 0 {
		writeErr(w, http.StatusNotFound, "no measurements for pump %d in range", id)
		return
	}
	// Most recent in range.
	rec := recs[len(recs)-1]
	freq, psd := transform.PSD(rec)
	writeJSON(w, http.StatusOK, PSDResponse{ServiceDays: rec.ServiceDays, Freq: freq, PSD: psd})
}

func (s *Server) handleLabels(w http.ResponseWriter, _ *http.Request) {
	if s.labels == nil {
		writeErr(w, http.StatusNotFound, "label store not configured")
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"labels": s.labels.Valid()})
}

func (s *Server) handleGetPeriod(w http.ResponseWriter, _ *http.Request) {
	if s.periods == nil {
		writeErr(w, http.StatusNotFound, "period manager not configured")
		return
	}
	writeJSON(w, http.StatusOK, s.periods.Current())
}

// maxPeriodBodyBytes caps a PUT /api/v1/period body: a period is two
// numbers, tens of bytes of JSON.
const maxPeriodBodyBytes = 4 << 10

func (s *Server) handlePutPeriod(w http.ResponseWriter, r *http.Request) {
	if s.periods == nil {
		writeErr(w, http.StatusNotFound, "period manager not configured")
		return
	}
	var p store.AnalysisPeriod
	if !decodeBounded(w, r, maxPeriodBodyBytes, "period", &p) {
		return
	}
	if err := s.periods.Pin(p); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, p)
}
