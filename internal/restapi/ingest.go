package restapi

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"vibepm/internal/store"
	"vibepm/internal/stream"
)

// IngestRequest is the wire format for pushing one measurement into the
// store: metadata plus the three axes as base64-encoded little-endian
// int16 samples (the same quantized representation the sensor
// produces).
type IngestRequest struct {
	PumpID       int     `json:"pump_id"`
	ServiceDays  float64 `json:"service_days"`
	SampleRateHz float64 `json:"sample_rate_hz"`
	ScaleG       float64 `json:"scale_g"`
	// X, Y, Z carry base64(little-endian int16 samples).
	X string `json:"x"`
	Y string `json:"y"`
	Z string `json:"z"`
}

// decodeAxis unpacks one base64 axis payload. An odd byte count means
// a truncated or corrupt int16 stream; rejecting it beats silently
// dropping the trailing byte and shifting every later sample.
func decodeAxis(s string) ([]int16, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, err
	}
	if len(raw)%2 != 0 {
		return nil, fmt.Errorf("odd payload length %d bytes: samples are little-endian int16", len(raw))
	}
	out := make([]int16, len(raw)/2)
	for i := range out {
		out[i] = int16(binary.LittleEndian.Uint16(raw[2*i:]))
	}
	return out, nil
}

// EncodeAxis packs samples for an IngestRequest — the client-side
// counterpart of the ingestion endpoint.
func EncodeAxis(samples []int16) string {
	raw := make([]byte, 2*len(samples))
	for i, v := range samples {
		binary.LittleEndian.PutUint16(raw[2*i:], uint16(v))
	}
	return base64.StdEncoding.EncodeToString(raw)
}

// decodeBounded decodes r's JSON body into v, reading at most limit
// bytes: a client cannot make the server buffer an unbounded payload.
// A body past the cap is answered 413, one that does not decode 400
// ("bad <what>"); it reports whether v was filled.
func decodeBounded(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) bool {
	r.Body = http.MaxBytesReader(w, r.Body, limit)
	err := json.NewDecoder(r.Body).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
	default:
		writeErr(w, http.StatusBadRequest, "bad %s: %v", what, err)
	}
	return false
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	var req IngestRequest
	if !decodeBounded(w, r, s.maxBodyBytes, "measurement", &req) {
		s.ingestRejected.Inc()
		return
	}
	if req.SampleRateHz <= 0 || req.ScaleG <= 0 {
		s.ingestRejected.Inc()
		writeErr(w, http.StatusBadRequest, "sample_rate_hz and scale_g must be positive")
		return
	}
	rec := &store.Record{
		PumpID:       req.PumpID,
		ServiceDays:  req.ServiceDays,
		SampleRateHz: req.SampleRateHz,
		ScaleG:       req.ScaleG,
	}
	for axis, payload := range []string{req.X, req.Y, req.Z} {
		samples, err := decodeAxis(payload)
		if err != nil {
			s.ingestRejected.Inc()
			writeErr(w, http.StatusBadRequest, "axis %d: %v", axis, err)
			return
		}
		rec.Raw[axis] = samples
	}
	// Idempotent insert: a retried or duplicated POST must not inflate
	// the series — the same guarantee the gateway's transport path has.
	// On the durable path the insert is WAL-logged first; only a record
	// that is on disk (per the fsync policy) earns the 201.
	stored, err := s.ingester.Ingest(rec)
	if err != nil {
		s.ingestRejected.Inc()
		if errors.Is(err, stream.ErrInvalidRecord) || errors.Is(err, store.ErrRecordTooLarge) {
			// Per-record rejection — the WAL is healthy, the client
			// payload is not. 400, not 503.
			writeErr(w, http.StatusBadRequest, "bad measurement: %v", err)
			return
		}
		writeErr(w, http.StatusServiceUnavailable, "write-ahead log unavailable: %v", err)
		return
	}
	if !stored {
		s.ingestDuplicates.Inc()
		writeJSON(w, http.StatusConflict, map[string]any{
			"error":        "duplicate measurement",
			"pump_id":      rec.PumpID,
			"service_days": rec.ServiceDays,
		})
		return
	}
	s.ingestAccepted.Inc()
	writeJSON(w, http.StatusCreated, map[string]any{
		"pump_id": rec.PumpID, "service_days": rec.ServiceDays, "samples": rec.Samples(),
	})
}
