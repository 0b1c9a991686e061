package restapi

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"vibepm"
	"vibepm/internal/mems"
	"vibepm/internal/obs"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// faultsFixture wires a data Server and an engine over one shared
// measurement store, mirroring the vibed wiring: the server's ingest
// path and the engine's FaultStatus see the same records and the same
// per-pump generations.
func faultsFixture(t *testing.T) (*Server, *vibepm.Engine, *store.Measurements) {
	t.Helper()
	m := seedStore(t)
	labels := store.NewLabels()
	pm, err := store.NewPeriodManager(store.AnalysisPeriod{StartDays: 0, EndDays: 100}, 1)
	if err != nil {
		t.Fatal(err)
	}
	eng := vibepm.NewWithStores(vibepm.Options{}, m, labels)
	return New(m, labels, pm, WithFaults(eng)), eng, m
}

func TestFaultsEndpoint(t *testing.T) {
	s, eng, m := faultsFixture(t)

	// Before EnableFaults the endpoint answers 404.
	rec, body := get(t, s, "/api/v1/pumps/3/faults")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("pre-enable status %d: %v", rec.Code, body)
	}

	eng.EnableFaults(vibepm.MachineSpec{}, vibepm.FaultOptions{})

	rec, body = get(t, s, "/api/v1/pumps/3/faults")
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %v", rec.Code, body)
	}
	if got := int(body["pump_id"].(float64)); got != 3 {
		t.Fatalf("pump_id = %d", got)
	}
	if _, ok := body["class"].(string); !ok {
		t.Fatalf("class missing: %v", body)
	}
	if body["rotor_hz"].(float64) <= 0 {
		t.Fatalf("rotor_hz = %v", body["rotor_hz"])
	}
	etag := rec.Header().Get("ETag")
	if etag == "" {
		t.Fatal("missing ETag")
	}

	// Conditional request against the current generation → 304.
	req := httptest.NewRequest(http.MethodGet, "/api/v1/pumps/3/faults", nil)
	req.Header.Set("If-None-Match", etag)
	rr := httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusNotModified {
		t.Fatalf("conditional status %d", rr.Code)
	}
	if rr.Body.Len() != 0 {
		t.Fatalf("304 carried a body: %q", rr.Body.String())
	}

	// An append bumps the pump generation: the tag rotates and the
	// stale conditional request gets a full response again.
	pump := physics.NewPump(physics.PumpConfig{ID: 3, Seed: 1})
	sensor, err := mems.New(mems.Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	cap := sensor.Measure(pump, 6, 256)
	nr := &store.Record{PumpID: 3, ServiceDays: 6, SampleRateHz: cap.SampleRateHz, ScaleG: cap.ScaleG}
	for axis := 0; axis < 3; axis++ {
		nr.Raw[axis] = cap.Raw[axis]
	}
	m.Add(nr)

	req = httptest.NewRequest(http.MethodGet, "/api/v1/pumps/3/faults", nil)
	req.Header.Set("If-None-Match", etag)
	rr = httptest.NewRecorder()
	s.ServeHTTP(rr, req)
	if rr.Code != http.StatusOK {
		t.Fatalf("post-ingest status %d: %s", rr.Code, rr.Body.String())
	}
	if fresh := rr.Header().Get("ETag"); fresh == etag {
		t.Fatalf("ETag did not rotate after ingest: %s", fresh)
	}

	// Errors: unknown pump and malformed id.
	rec, _ = get(t, s, "/api/v1/pumps/99/faults")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown pump status %d", rec.Code)
	}
	rec, _ = get(t, s, "/api/v1/pumps/zzz/faults")
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id status %d", rec.Code)
	}
}

func TestFaultsEndpointNotConfigured(t *testing.T) {
	s, _, _ := newTestServer(t)
	rec, _ := get(t, s, "/api/v1/pumps/3/faults")
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unconfigured status %d", rec.Code)
	}
}

func TestFaultsCacheHit(t *testing.T) {
	s, eng, _ := faultsFixture(t)
	eng.EnableFaults(vibepm.MachineSpec{}, vibepm.FaultOptions{})
	r1, b1 := get(t, s, "/api/v1/pumps/3/faults")
	r2, b2 := get(t, s, "/api/v1/pumps/3/faults")
	if r1.Code != http.StatusOK || r2.Code != http.StatusOK {
		t.Fatalf("status %d / %d", r1.Code, r2.Code)
	}
	if r1.Header().Get("ETag") != r2.Header().Get("ETag") {
		t.Fatal("ETag unstable across identical generations")
	}
	if b1["class"] != b2["class"] || b1["confidence"] != b2["confidence"] {
		t.Fatalf("cached body diverged: %v vs %v", b1, b2)
	}
}

// TestFaultsMissDoesNotStallOtherPumps pins the per-pump rebuild lock:
// while pump 3's fault status is being rebuilt, pump 4's query is
// answered.
func TestFaultsMissDoesNotStallOtherPumps(t *testing.T) {
	s, eng, m := faultsFixture(t)
	eng.EnableFaults(vibepm.MachineSpec{}, vibepm.FaultOptions{})
	for _, rec := range m.All(3) {
		other := *rec
		other.PumpID = 4
		m.Add(&other)
	}

	building := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = s.faultResp.Get(3, respTag{gen: m.Generation(3)}, func() (*cachedResp, respTag, error) {
			close(building)
			<-release
			return nil, respTag{}, errors.New("abandoned")
		})
	}()
	<-building
	served := make(chan int, 1)
	go func() {
		rec, _ := get(t, s, "/api/v1/pumps/4/faults")
		served <- rec.Code
	}()
	select {
	case code := <-served:
		if code != http.StatusOK {
			t.Errorf("pump 4 status %d", code)
		}
	case <-time.After(10 * time.Second):
		t.Error("pump 4's fault query stalled behind pump 3's rebuild")
	}
	close(release)
	<-done
	if rec, _ := get(t, s, "/api/v1/pumps/3/faults"); rec.Code != http.StatusOK {
		t.Fatalf("pump 3 after the abandoned rebuild: status %d", rec.Code)
	}
}

// TestCacheCountersCountBodies pins what the vibepm_api_*_cache_*
// counters count: one hit or one miss per serialized body the trend and
// fault caches serve, each cache in its own pair. A fault read moves
// only the fault pair, and on a tiered server a trend body built over a
// merged pyramid that was already cached is still a body miss.
func TestCacheCountersCountBodies(t *testing.T) {
	counts := func(reg *obs.Registry, cache string) [2]uint64 {
		return [2]uint64{
			reg.Counter("vibepm_api_" + cache + "_cache_hits_total").Value(),
			reg.Counter("vibepm_api_" + cache + "_cache_misses_total").Value(),
		}
	}

	reg := obs.NewRegistry()
	m := seedStore(t)
	eng := vibepm.NewWithStores(vibepm.Options{}, m, store.NewLabels())
	eng.EnableFaults(vibepm.MachineSpec{}, vibepm.FaultOptions{})
	s := New(m, nil, nil, WithFaults(eng), WithMetrics(reg))
	for i := 0; i < 2; i++ {
		if rec, body := get(t, s, "/api/v1/pumps/3/faults"); rec.Code != http.StatusOK {
			t.Fatalf("faults status %d: %v", rec.Code, body)
		}
	}
	if got := counts(reg, "fault"); got != [2]uint64{1, 1} {
		t.Fatalf("fault cache hits/misses = %v after two reads, want [1 1]", got)
	}
	if got := counts(reg, "trend"); got != [2]uint64{0, 0} {
		t.Fatalf("fault reads moved the trend counters: %v", got)
	}

	reg = obs.NewRegistry()
	_, d := openTieredServer(t, t.TempDir(), tieredCorpus(t))
	defer d.Abort()
	tiered := New(d.Store(), nil, nil, WithDurable(d), WithMetrics(reg))
	for _, path := range []string{
		"/api/v1/pumps/1/trend?points=512", // body miss, merged pyramid built
		"/api/v1/pumps/1/trend?points=16",  // body miss over the cached pyramid
		"/api/v1/pumps/1/trend?points=16",  // body hit
	} {
		if rec := getTrend(t, tiered, path, ""); rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d", path, rec.Code)
		}
	}
	if got := counts(reg, "trend"); got != [2]uint64{1, 2} {
		t.Fatalf("tiered trend cache hits/misses = %v, want [1 2]", got)
	}
}
