package restapi

import (
	"encoding/json"
	"fmt"
	"net/http"

	"vibepm"
)

// WithFaults attaches a fault-classification engine to the data API:
// GET /api/v1/pumps/{id}/faults serves the taxonomy classification of
// the pump's latest measurement. The endpoint answers 404 until
// EnableFaults has been called on the engine. Responses are keyed on
// the pump's series generation — the same discipline as the trend
// endpoint — so a dashboard polling a pump's fault status between
// ingests costs a map lookup (or a 304), an append invalidates exactly
// the touched pump, and a rebuild for one pump never stalls another's.
func WithFaults(eng *vibepm.Engine) Option {
	return func(s *Server) { s.faults = eng }
}

// handleFaults serves GET /api/v1/pumps/{id}/faults.
func (s *Server) handleFaults(w http.ResponseWriter, r *http.Request) {
	if s.faults == nil {
		writeErr(w, http.StatusNotFound, "fault classification not configured")
		return
	}
	id, err := pumpID(r)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad pump id")
		return
	}
	if !s.faults.FaultsEnabled() {
		writeErr(w, http.StatusNotFound, "fault classification not enabled")
		return
	}
	gen := s.measurements.Generation(id)
	if gen == 0 {
		writeErr(w, http.StatusNotFound, "pump %d has no measurements", id)
		return
	}
	code := http.StatusNotFound
	ent, hit, err := s.faultResp.Get(id, respTag{gen: gen}, func() (*cachedResp, respTag, error) {
		status, err := s.faults.FaultStatus(id)
		if err != nil {
			return nil, respTag{}, err
		}
		body, err := json.Marshal(status)
		if err != nil {
			code = http.StatusInternalServerError
			return nil, respTag{}, fmt.Errorf("encode fault status: %w", err)
		}
		return &cachedResp{etag: fmt.Sprintf("\"faults-%d-%d\"", id, gen), body: body}, respTag{gen: gen}, nil
	})
	if hit {
		s.faultCacheHits.Inc()
	} else {
		s.faultCacheMisses.Inc()
	}
	if err != nil {
		writeErr(w, code, "%v", err)
		return
	}
	serveCached(w, r, ent)
}
