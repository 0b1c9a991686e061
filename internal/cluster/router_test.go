package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vibepm/internal/restapi"
	"vibepm/internal/store"
)

// ingestBody builds a minimal valid ingest payload for pump.
func ingestBody(pump int, day float64) string {
	axis := restapi.EncodeAxis([]int16{1, 2, 3, 4})
	return fmt.Sprintf(`{"pump_id":%d,"service_days":%g,"sample_rate_hz":4000,"scale_g":0.003,"x":%q,"y":%q,"z":%q}`,
		pump, day, axis, axis, axis)
}

// newTestRouter boots a 3-node cluster with a restapi server per node
// behind one Router — the in-process shape `vibed -cluster` runs.
func newTestRouter(t *testing.T) (*Cluster, *Router) {
	t.Helper()
	c, err := Open(t.TempDir(), trialNames(3), Options{WAL: store.WALOptions{Policy: store.SyncNever}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.abortAll() })
	rt := NewRouter(c.Ring(), c.Status)
	for _, name := range trialNames(3) {
		n := c.Node(name)
		api := restapi.New(n.Durable().Store(), nil, nil, restapi.WithDurable(n.Durable()))
		rt.SetNode(name, api, "")
	}
	return c, rt
}

// TestRouterForwardsIngestToOwner: a POST through the router lands on
// the ring owner's store and only there, and the response names the
// serving node.
func TestRouterForwardsIngestToOwner(t *testing.T) {
	c, rt := newTestRouter(t)
	for pump := 0; pump < 24; pump++ {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/measurements",
			strings.NewReader(ingestBody(pump, 1.5)))
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, req)
		if w.Code != http.StatusCreated {
			t.Fatalf("pump %d: status %d: %s", pump, w.Code, w.Body.String())
		}
		owner := c.Ring().Route(pump)
		if got := w.Header().Get(NodeHeader); got != owner {
			t.Fatalf("pump %d: served by %q, ring owner %q", pump, got, owner)
		}
		for _, name := range trialNames(3) {
			n := len(c.Node(name).Durable().Store().Query(pump, 1.5, 1.5))
			if (name == owner) != (n == 1) {
				t.Fatalf("pump %d: node %s holds %d copies, owner is %s", pump, name, n, owner)
			}
		}
	}
}

// TestRouterRoutesPumpPaths: GET /api/v1/pumps/{id}/... goes to the
// id's owner; un-keyed paths pin to a stable member.
func TestRouterRoutesPumpPaths(t *testing.T) {
	c, rt := newTestRouter(t)
	// Seed one record so the trend/measurements endpoints have data.
	req := httptest.NewRequest(http.MethodPost, "/api/v1/measurements", strings.NewReader(ingestBody(7, 2)))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusCreated {
		t.Fatalf("seed ingest: %d", w.Code)
	}

	get := func(path string) (*httptest.ResponseRecorder, string) {
		w := httptest.NewRecorder()
		rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
		return w, w.Header().Get(NodeHeader)
	}
	w2, node := get("/api/v1/pumps/7/measurements")
	if w2.Code != http.StatusOK {
		t.Fatalf("measurements: %d: %s", w2.Code, w2.Body.String())
	}
	if want := c.Ring().Route(7); node != want {
		t.Fatalf("pump path served by %q, owner %q", node, want)
	}
	// An un-keyed path routes deterministically: same member each time.
	_, first := get("/api/v1/healthz")
	for i := 0; i < 5; i++ {
		if _, again := get("/api/v1/healthz"); again != first {
			t.Fatalf("un-keyed path flapped: %q vs %q", again, first)
		}
	}
}

// TestRouterRedirectsToRemoteOwner: an owner registered with only a
// base URL answers 307 with the full Location, preserving the path.
func TestRouterRedirectsToRemoteOwner(t *testing.T) {
	c, rt := newTestRouter(t)
	pump := 0
	owner := c.Ring().Route(pump)
	rt.SetNode(owner, nil, "http://"+owner+".example:8080/")

	req := httptest.NewRequest(http.MethodPost, "/api/v1/measurements", strings.NewReader(ingestBody(pump, 3)))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusTemporaryRedirect {
		t.Fatalf("status %d, want 307", w.Code)
	}
	want := "http://" + owner + ".example:8080/api/v1/measurements"
	if got := w.Header().Get("Location"); got != want {
		t.Fatalf("Location = %q, want %q", got, want)
	}
}

// TestRouterErrors: missing pump_id, empty ring, unregistered owner.
func TestRouterErrors(t *testing.T) {
	_, rt := newTestRouter(t)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/measurements", strings.NewReader(`{"service_days":1}`))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("missing pump_id: status %d", w.Code)
	}

	empty := NewRouter(NewRing(8), nil)
	w = httptest.NewRecorder()
	empty.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty ring: status %d", w.Code)
	}

	ring := NewRing(8)
	ring.Add("ghost")
	unreg := NewRouter(ring, nil)
	w = httptest.NewRecorder()
	unreg.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("unregistered owner: status %d", w.Code)
	}
}

// brokenReader yields a few bytes then fails like a client that
// disconnected mid-body.
type brokenReader struct{ sent bool }

func (b *brokenReader) Read(p []byte) (int, error) {
	if !b.sent {
		b.sent = true
		return copy(p, []byte(`{"pump_id":`)), nil
	}
	return 0, io.ErrUnexpectedEOF
}

// TestRouterIngestErrorPaths is the regression table for the routed
// ingest error statuses. The router used to answer 413 for every body
// read failure — including client disconnects — because it matched
// http.MaxBytesReader's error by substring; only the byte-cap error may
// be 413, and router-originated errors must not claim a serving node.
func TestRouterIngestErrorPaths(t *testing.T) {
	_, rt := newTestRouter(t)
	cases := []struct {
		name string
		body io.Reader
		want int
	}{
		{"oversized body", strings.NewReader(`{"pump_id":1,"pad":"` + strings.Repeat("x", 9<<20) + `"}`), http.StatusRequestEntityTooLarge},
		{"missing pump_id", strings.NewReader(`{"service_days":1}`), http.StatusBadRequest},
		{"malformed JSON", strings.NewReader(`{"pump_id":`), http.StatusBadRequest},
		{"disconnect mid-body", &brokenReader{}, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := httptest.NewRequest(http.MethodPost, "/api/v1/measurements", tc.body)
			w := httptest.NewRecorder()
			rt.ServeHTTP(w, req)
			if w.Code != tc.want {
				t.Fatalf("status %d, want %d: %s", w.Code, tc.want, w.Body.String())
			}
			// The request never reached a member, so the response must
			// not attribute itself to one.
			if node := w.Header().Get(NodeHeader); node != "" {
				t.Fatalf("router error carries %s=%q; header must be absent", NodeHeader, node)
			}
			var errBody struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(w.Body.Bytes(), &errBody); err != nil || errBody.Error == "" {
				t.Fatalf("error body %q is not the router's JSON error shape", w.Body.String())
			}
		})
	}
}

// TestRouterClusterStatusEndpoint: the status JSON vibectl consumes.
func TestRouterClusterStatusEndpoint(t *testing.T) {
	c, rt := newTestRouter(t)
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/cluster/status", nil))
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	var st Status
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatalf("bad status JSON: %v", err)
	}
	if st.Live != 3 || len(st.Nodes) != 3 {
		t.Fatalf("status = %+v", st)
	}

	if _, err := c.Kill("n1"); err != nil {
		t.Fatal(err)
	}
	rt.RemoveNode("n1")
	w = httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/cluster/status", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Live != 2 {
		t.Fatalf("live = %d after kill", st.Live)
	}
}
