package restapi

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vibepm/internal/mems"
	"vibepm/internal/physics"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

func seedStore(t *testing.T) *store.Measurements {
	t.Helper()
	m := store.NewMeasurements()
	pump := physics.NewPump(physics.PumpConfig{ID: 3, Seed: 1})
	sensor, err := mems.New(mems.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	for day := 0.0; day < 5; day++ {
		cap := sensor.Measure(pump, day, 256)
		rec := &store.Record{
			PumpID:       3,
			ServiceDays:  day,
			SampleRateHz: cap.SampleRateHz,
			ScaleG:       cap.ScaleG,
		}
		for axis := 0; axis < 3; axis++ {
			rec.Raw[axis] = cap.Raw[axis]
		}
		m.Add(rec)
	}
	return m
}

func newTestServer(t *testing.T) (*Server, *store.PeriodManager, *store.Labels) {
	t.Helper()
	m := seedStore(t)
	labels := store.NewLabels()
	if err := labels.Add(store.Label{PumpID: 3, ServiceDays: 1, Zone: physics.MergedA, Valid: true}); err != nil {
		t.Fatal(err)
	}
	pm, err := store.NewPeriodManager(store.AnalysisPeriod{StartDays: 0, EndDays: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	return New(m, labels, pm), pm, labels
}

func get(t *testing.T, s http.Handler, path string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", path, rec.Body.String(), err)
	}
	return rec, body
}

func TestHealthz(t *testing.T) {
	s, _, _ := newTestServer(t)
	rec, body := get(t, s, "/api/v1/healthz")
	if rec.Code != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz: %d %v", rec.Code, body)
	}
}

func TestPumpsEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t)
	rec, body := get(t, s, "/api/v1/pumps")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	pumps := body["pumps"].([]any)
	if len(pumps) != 1 || pumps[0].(float64) != 3 {
		t.Fatalf("pumps = %v", pumps)
	}
}

func TestMeasurementsEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t)
	rec, body := get(t, s, "/api/v1/pumps/3/measurements?from=1&to=3")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	ms := body["measurements"].([]any)
	if len(ms) != 3 {
		t.Fatalf("measurements = %d", len(ms))
	}
	first := ms[0].(map[string]any)
	if first["service_days"].(float64) != 1 {
		t.Fatalf("first day %v", first["service_days"])
	}
	if first["rms_g"].(float64) <= 0 {
		t.Fatal("rms missing")
	}
	if _, ok := first["raw"]; ok {
		t.Fatal("raw samples must be omitted by default")
	}
	// offsets_g is transform.Offsets of the stored record, bit for bit.
	for _, m := range ms {
		meta := m.(map[string]any)
		day := meta["service_days"].(float64)
		want := transform.Offsets(s.measurements.Query(3, day, day)[0])
		for axis, v := range meta["offsets_g"].([]any) {
			if math.Float64bits(v.(float64)) != math.Float64bits(want[axis]) {
				t.Fatalf("day %g axis %d: offsets_g %v, want %v", day, axis, v, want[axis])
			}
		}
	}
	// With raw=1 the samples ride along.
	_, body = get(t, s, "/api/v1/pumps/3/measurements?from=1&to=1&raw=1")
	ms = body["measurements"].([]any)
	first = ms[0].(map[string]any)
	if _, ok := first["raw"]; !ok {
		t.Fatal("raw=1 did not include samples")
	}
}

func TestMeasurementsBadRequests(t *testing.T) {
	s, _, _ := newTestServer(t)
	rec, _ := get(t, s, "/api/v1/pumps/zzz/measurements")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id status %d", rec.Code)
	}
	rec, _ = get(t, s, "/api/v1/pumps/3/measurements?from=abc")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad from status %d", rec.Code)
	}
}

func TestMeasurementsDefaultToAnalysisPeriod(t *testing.T) {
	s, pm, _ := newTestServer(t)
	if err := pm.Pin(store.AnalysisPeriod{StartDays: 2, EndDays: 3}); err != nil {
		t.Fatal(err)
	}
	_, body := get(t, s, "/api/v1/pumps/3/measurements")
	ms := body["measurements"].([]any)
	if len(ms) != 2 { // days 2 and 3
		t.Fatalf("period-scoped query returned %d", len(ms))
	}
}

func TestPSDEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t)
	rec, body := get(t, s, "/api/v1/pumps/3/psd")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	freq := body["freq_hz"].([]any)
	psd := body["psd_g2_per_hz"].([]any)
	if len(freq) != 256 || len(psd) != 256 {
		t.Fatalf("lengths %d %d", len(freq), len(psd))
	}
	rec, _ = get(t, s, "/api/v1/pumps/99/psd")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("missing pump status %d", rec.Code)
	}
}

func TestLabelsEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t)
	rec, body := get(t, s, "/api/v1/labels")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d", rec.Code)
	}
	labels := body["labels"].([]any)
	if len(labels) != 1 {
		t.Fatalf("labels = %d", len(labels))
	}
}

func TestPeriodEndpoints(t *testing.T) {
	s, _, _ := newTestServer(t)
	rec, body := get(t, s, "/api/v1/period")
	if rec.Code != http.StatusOK || body["end_days"].(float64) != 100 {
		t.Fatalf("period: %d %v", rec.Code, body)
	}
	// PUT pins a new period.
	req := httptest.NewRequest(http.MethodPut, "/api/v1/period", strings.NewReader(`{"start_days":5,"end_days":10}`))
	w := httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("PUT status %d: %s", w.Code, w.Body.String())
	}
	_, body = get(t, s, "/api/v1/period")
	if body["start_days"].(float64) != 5 {
		t.Fatalf("period not pinned: %v", body)
	}
	// Invalid period rejected.
	req = httptest.NewRequest(http.MethodPut, "/api/v1/period", strings.NewReader(`{"start_days":10,"end_days":5}`))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("inverted period status %d", w.Code)
	}
	// Garbage body rejected.
	req = httptest.NewRequest(http.MethodPut, "/api/v1/period", strings.NewReader(`{`))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("garbage body status %d", w.Code)
	}
	// An oversized body is refused before it is decoded, and the pinned
	// period stays.
	padded := `{"start_days":20,"end_days":30,"pad":"` + strings.Repeat("x", maxPeriodBodyBytes) + `"}`
	req = httptest.NewRequest(http.MethodPut, "/api/v1/period", strings.NewReader(padded))
	w = httptest.NewRecorder()
	s.ServeHTTP(w, req)
	if w.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body status %d", w.Code)
	}
	_, body = get(t, s, "/api/v1/period")
	if body["start_days"].(float64) != 5 || body["end_days"].(float64) != 10 {
		t.Fatalf("an oversized body moved the pinned period: %v", body)
	}
}

func TestNilOptionalStores(t *testing.T) {
	s := New(seedStore(t), nil, nil)
	rec, _ := get(t, s, "/api/v1/labels")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("labels status %d", rec.Code)
	}
	rec, _ = get(t, s, "/api/v1/period")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("period status %d", rec.Code)
	}
	// Without a period manager, measurements default to everything.
	_, body := get(t, s, "/api/v1/pumps/3/measurements")
	if len(body["measurements"].([]any)) != 5 {
		t.Fatal("expected all measurements")
	}
}

func TestIngestEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t)
	samples := make([]int16, 64)
	for i := range samples {
		samples[i] = int16(i * 100)
	}
	payload := map[string]any{
		"pump_id": 9, "service_days": 3.5,
		"sample_rate_hz": 4000.0, "scale_g": 0.003,
		"x": EncodeAxis(samples), "y": EncodeAxis(samples), "z": EncodeAxis(samples),
	}
	body, _ := json.Marshal(payload)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/measurements", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusCreated {
		t.Fatalf("ingest status %d: %s", rec.Code, rec.Body.String())
	}
	// The measurement is immediately queryable.
	_, resp := get(t, s, "/api/v1/pumps/9/measurements?from=3&to=4")
	ms := resp["measurements"].([]any)
	if len(ms) != 1 {
		t.Fatalf("ingested measurement not found: %v", resp)
	}
	meta := ms[0].(map[string]any)
	if meta["samples"].(float64) != 64 {
		t.Fatalf("samples %v", meta["samples"])
	}
}

func TestIngestValidation(t *testing.T) {
	s, _, _ := newTestServer(t)
	post := func(body string) int {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/measurements", strings.NewReader(body))
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := post("{garbage"); code != http.StatusBadRequest {
		t.Fatalf("garbage body status %d", code)
	}
	if code := post(`{"pump_id":1,"sample_rate_hz":0,"scale_g":1}`); code != http.StatusBadRequest {
		t.Fatalf("zero rate status %d", code)
	}
	if code := post(`{"pump_id":1,"sample_rate_hz":4000,"scale_g":0.01,"x":"!!!","y":"","z":""}`); code != http.StatusBadRequest {
		t.Fatalf("bad base64 status %d", code)
	}
	if code := post(`{"pump_id":1,"sample_rate_hz":4000,"scale_g":0.01,"x":"","y":"","z":""}`); code != http.StatusBadRequest {
		t.Fatalf("empty axes status %d", code)
	}
	ax := EncodeAxis([]int16{1, 2, 3})
	short := EncodeAxis([]int16{1})
	if code := post(`{"pump_id":1,"sample_rate_hz":4000,"scale_g":0.01,"x":"` + ax + `","y":"` + short + `","z":"` + ax + `"}`); code != http.StatusBadRequest {
		t.Fatalf("ragged axes status %d", code)
	}

	// Finite numbers that overflow once analysed — int16 × scale_g past
	// float64, a rate whose bin frequencies do — or, near zero, size a
	// smoothing window by their reciprocal: refused before the write,
	// so the pump's views keep answering.
	before := s.measurements.Len()
	for name, fields := range map[string]string{
		"scale_g 1e306":        `"sample_rate_hz":4000,"scale_g":1e306`,
		"scale_g 1e150":        `"sample_rate_hz":4000,"scale_g":1e150`,
		"sample_rate_hz 1e308": `"sample_rate_hz":1e308,"scale_g":0.01`,
		"sample_rate_hz 1e-9":  `"sample_rate_hz":1e-9,"scale_g":0.01`,
	} {
		body := `{"pump_id":3,"service_days":9,` + fields + `,"x":"` + ax + `","y":"` + ax + `","z":"` + ax + `"}`
		if code := post(body); code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", name, code)
		}
	}
	if got := s.measurements.Len(); got != before {
		t.Fatalf("rejected measurements grew the store: %d -> %d", before, got)
	}
	for _, path := range []string{"/api/v1/pumps/3/trend", "/api/v1/pumps/3/trend?metric=vrms", "/api/v1/pumps/3/psd?service_days=1"} {
		if rec, _ := get(t, s, path); rec.Code != http.StatusOK {
			t.Fatalf("GET %s after the rejected POSTs: %d", path, rec.Code)
		}
	}
}
