package restapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"vibepm/internal/store"
	"vibepm/internal/transform"
)

func getTrend(t *testing.T, s http.Handler, path, ifNoneMatch string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestTrendEndpoint checks the payload shape and that the downsampled
// values match the direct extraction of the stored records.
func TestTrendEndpoint(t *testing.T) {
	s, _, _ := newTestServer(t)
	rec := getTrend(t, s, "/api/v1/pumps/3/trend?metric=rms", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("ETag") == "" {
		t.Fatal("trend response must carry an ETag")
	}
	var resp TrendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.PumpID != 3 || resp.Metric != "rms" {
		t.Fatalf("resp header = %+v", resp)
	}
	if resp.TotalPoints != 5 || len(resp.Points) != 5 {
		t.Fatalf("points = %d/%d, want 5/5", len(resp.Points), resp.TotalPoints)
	}
	recs := s.measurements.All(3)
	for i, p := range resp.Points {
		if p.ServiceDays != recs[i].ServiceDays {
			t.Fatalf("point %d day = %g, want %g", i, p.ServiceDays, recs[i].ServiceDays)
		}
		if want := transform.RMS(recs[i]); p.Value != want {
			t.Fatalf("point %d value = %g, want %g", i, p.Value, want)
		}
	}
}

// TestTrendConditionalRequests pins the ETag lifecycle: a revalidation
// with the current tag is a bodyless 304; an append moves the series
// generation, so the same tag then misses and a fresh body arrives
// under a new tag.
func TestTrendConditionalRequests(t *testing.T) {
	s, _, _ := newTestServer(t)
	first := getTrend(t, s, "/api/v1/pumps/3/trend", "")
	if first.Code != http.StatusOK {
		t.Fatalf("status = %d", first.Code)
	}
	etag := first.Header().Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}

	cond := getTrend(t, s, "/api/v1/pumps/3/trend", etag)
	if cond.Code != http.StatusNotModified {
		t.Fatalf("revalidation status = %d, want 304", cond.Code)
	}
	if cond.Body.Len() != 0 {
		t.Fatalf("304 must carry no body, got %d bytes", cond.Body.Len())
	}
	if cond.Header().Get("ETag") != etag {
		t.Fatal("304 must echo the current ETag")
	}

	// Weak-validator and list forms of If-None-Match must also match.
	if rec := getTrend(t, s, "/api/v1/pumps/3/trend", "W/"+etag); rec.Code != http.StatusNotModified {
		t.Fatalf("weak validator status = %d, want 304", rec.Code)
	}
	if rec := getTrend(t, s, "/api/v1/pumps/3/trend", `"other", `+etag); rec.Code != http.StatusNotModified {
		t.Fatalf("list validator status = %d, want 304", rec.Code)
	}

	// An unchanged series must serve the cached serialized body.
	again := getTrend(t, s, "/api/v1/pumps/3/trend", "")
	if again.Code != http.StatusOK || again.Header().Get("ETag") != etag {
		t.Fatalf("repeat request: status %d etag %q", again.Code, again.Header().Get("ETag"))
	}
	if again.Body.String() != first.Body.String() {
		t.Fatal("unchanged series must serve an identical body")
	}

	// Append → generation moves → old tag misses, new body + new tag.
	s.measurements.Add(&store.Record{
		PumpID:       3,
		ServiceDays:  99,
		SampleRateHz: 4000,
		ScaleG:       0.003,
		Raw:          [3][]int16{{5, 6}, {5, 6}, {5, 6}},
	})
	after := getTrend(t, s, "/api/v1/pumps/3/trend", etag)
	if after.Code != http.StatusOK {
		t.Fatalf("post-append status = %d, want 200", after.Code)
	}
	newTag := after.Header().Get("ETag")
	if newTag == "" || newTag == etag {
		t.Fatalf("post-append ETag = %q, must differ from %q", newTag, etag)
	}
	var resp TrendResponse
	if err := json.Unmarshal(after.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TotalPoints != 6 {
		t.Fatalf("post-append total = %d, want 6", resp.TotalPoints)
	}
}

// TestTrendValidation covers the endpoint's error paths.
func TestTrendValidation(t *testing.T) {
	s, _, _ := newTestServer(t)
	for _, tc := range []struct {
		path string
		code int
	}{
		{"/api/v1/pumps/3/trend?metric=nope", http.StatusBadRequest},
		{"/api/v1/pumps/3/trend?points=0", http.StatusBadRequest},
		{"/api/v1/pumps/3/trend?points=x", http.StatusBadRequest},
		{"/api/v1/pumps/77/trend", http.StatusNotFound},
		{"/api/v1/pumps/3/trend?metric=vrms", http.StatusOK},
	} {
		if rec := getTrend(t, s, tc.path, ""); rec.Code != tc.code {
			t.Errorf("%s: status = %d, want %d", tc.path, rec.Code, tc.code)
		}
	}
}

// TestTrendDownsampleBudget checks the points parameter actually caps
// the payload.
func TestTrendDownsampleBudget(t *testing.T) {
	m := store.NewMeasurements()
	for i := 0; i < 200; i++ {
		m.Add(&store.Record{
			PumpID:       1,
			ServiceDays:  float64(i),
			SampleRateHz: 4000,
			ScaleG:       0.003,
			Raw:          [3][]int16{{int16(i % 50)}, {1}, {1}},
		})
	}
	s := New(m, nil, nil)
	rec := getTrend(t, s, "/api/v1/pumps/1/trend?points=16", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	var resp TrendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TotalPoints != 200 {
		t.Fatalf("total = %d, want 200", resp.TotalPoints)
	}
	if len(resp.Points) == 0 || len(resp.Points) > 16 {
		t.Fatalf("downsampled to %d points, want 1..16", len(resp.Points))
	}
}

// TestTrendPointsSweepIsBounded pins the response cache's footprint:
// the cache key carries the client-chosen point budget, so one poller
// sweeping points=1..4096 must not pin a serialized body per budget,
// and every body — cached, rebuilt or evicted and rebuilt — must equal
// a fresh min-max downsample of the stored series.
func TestTrendPointsSweepIsBounded(t *testing.T) {
	m := store.NewMeasurements()
	for i := 0; i < 80; i++ {
		rec := &store.Record{PumpID: 9, ServiceDays: float64(i) / 4, SampleRateHz: 4000, ScaleG: 0.003}
		for axis := range rec.Raw {
			rec.Raw[axis] = []int16{int16(i*37%211 - 100), int16(i * 13 % 97), int16(-i % 53), int16(i)}
		}
		m.Add(rec)
	}
	s := New(m, nil, nil)
	series := store.ExtractSeries(m.All(9), transform.RMS)
	// The second, partial pass re-reads budgets the first pass cached or
	// evicted.
	for _, last := range []int{maxTrendPoints, 100} {
		for points := 1; points <= last; points++ {
			rec := getTrend(t, s, fmt.Sprintf("/api/v1/pumps/9/trend?points=%d", points), "")
			if rec.Code != http.StatusOK {
				t.Fatalf("points=%d: status %d", points, rec.Code)
			}
			down := store.DownsampleMinMax(series, points)
			want := TrendResponse{PumpID: 9, Metric: "rms", TotalPoints: len(series), Points: make([]TrendPointJSON, len(down))}
			for i, p := range down {
				want.Points[i] = TrendPointJSON{ServiceDays: p.ServiceDays, Value: p.Value}
			}
			body, err := json.Marshal(want)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rec.Body.Bytes(), body) {
				t.Fatalf("points=%d: body differs from a fresh downsample", points)
			}
			if n := s.trendResp.Len(); n > maxCachedTrendBodies {
				t.Fatalf("points=%d: %d cached bodies, cap %d", points, n, maxCachedTrendBodies)
			}
		}
	}
}

// BenchmarkHTTPTrend10k is a 512-point trend request over a 10k-record
// pump, served from the response cache.
func BenchmarkHTTPTrend10k(b *testing.B) {
	m := store.NewMeasurements()
	for i := 0; i < 10000; i++ {
		m.Add(&store.Record{
			PumpID:       1,
			ServiceDays:  float64(i),
			SampleRateHz: 4000,
			ScaleG:       0.003,
			Raw:          [3][]int16{{int16(i % 997), int16(i % 31)}, {1, 2}, {3, 4}},
		})
	}
	srv := New(m, nil, nil)
	b.ReportAllocs()
	for b.Loop() {
		req := httptest.NewRequest(http.MethodGet, "/api/v1/pumps/1/trend?points=512", nil)
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			b.Fatalf("trend status %d", rec.Code)
		}
	}
}
