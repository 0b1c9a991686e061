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

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	// Bound the body before decoding: a client cannot make the server
	// buffer an unbounded JSON/base64 payload.
	r.Body = http.MaxBytesReader(w, r.Body, s.maxBodyBytes)
	var req IngestRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.ingestRejected.Inc()
			writeErr(w, http.StatusRequestEntityTooLarge, "request body exceeds %d bytes", tooBig.Limit)
			return
		}
		s.ingestRejected.Inc()
		writeErr(w, http.StatusBadRequest, "bad measurement: %v", err)
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
