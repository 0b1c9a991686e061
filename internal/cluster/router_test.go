package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vibepm/internal/node"
	"vibepm/internal/restapi"
	"vibepm/internal/store"
)

// ingestBody builds a minimal valid ingest payload for pump.
func ingestBody(pump int, day float64) string {
	axis := restapi.EncodeAxis([]int16{1, 2, 3, 4})
	return fmt.Sprintf(`{"pump_id":%d,"service_days":%g,"sample_rate_hz":4000,"scale_g":0.003,"x":%q,"y":%q,"z":%q}`,
		pump, day, axis, axis, axis)
}

// newTestRouter boots a 3-node cluster behind its Router — the
// in-process shape `vibed -cluster` runs.
func newTestRouter(t *testing.T) (*Cluster, *Router) {
	t.Helper()
	c, err := Open(t.TempDir(), MemberNames(3), memberWAL(store.WALOptions{Policy: store.SyncNever}))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.abortAll() })
	return c, c.Router()
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
		owner := c.ring.Route(pump)
		if got := w.Header().Get(NodeHeader); got != owner {
			t.Fatalf("pump %d: served by %q, ring owner %q", pump, got, owner)
		}
		for _, name := range MemberNames(3) {
			n := len(c.Node(name).Store.Query(pump, 1.5, 1.5))
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
	if want := c.ring.Route(7); node != want {
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

// TestRouterErrors: missing pump_id, and a ring with no live member.
func TestRouterErrors(t *testing.T) {
	c, rt := newTestRouter(t)
	req := httptest.NewRequest(http.MethodPost, "/api/v1/measurements", strings.NewReader(`{"service_days":1}`))
	w := httptest.NewRecorder()
	rt.ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("missing pump_id: status %d", w.Code)
	}

	for _, name := range MemberNames(3) {
		if _, err := c.Kill(name); err != nil {
			t.Fatal(err)
		}
	}
	w = httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/healthz", nil))
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("empty ring: status %d", w.Code)
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

// TestClusterOfOneEqualsNode: a cluster member is the node a plain
// vibed serves. The same POST stream through node.Open's handler and
// through a one-member cluster's router yields byte-identical statuses,
// ETags and bodies on every per-pump view; the router adds only its
// X-Vibepm-Node header.
func TestClusterOfOneEqualsNode(t *testing.T) {
	member := node.Options{Faults: true, Durable: store.DurableOptions{WAL: store.WALOptions{Policy: store.SyncNever}}}
	solo := member
	solo.Dir = t.TempDir()
	n, err := node.Open(solo)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Abort()
	c, err := Open(t.TempDir(), []string{"a"}, Options{Node: member})
	if err != nil {
		t.Fatal(err)
	}
	defer c.abortAll()
	rt := c.Router()

	both := func(method, path, body string) {
		t.Helper()
		var got [2]*httptest.ResponseRecorder
		for i, h := range []http.Handler{n.Handler, rt} {
			got[i] = httptest.NewRecorder()
			h.ServeHTTP(got[i], httptest.NewRequest(method, path, strings.NewReader(body)))
		}
		direct, routed := got[0], got[1]
		if routed.Header().Get(NodeHeader) != "a" {
			t.Fatalf("%s %s: routed response served by %q", method, path, routed.Header().Get(NodeHeader))
		}
		if direct.Code != routed.Code || direct.Header().Get("ETag") != routed.Header().Get("ETag") || direct.Body.String() != routed.Body.String() {
			t.Fatalf("%s %s: node answered %d %s %s, cluster of one %d %s %s", method, path,
				direct.Code, direct.Header().Get("ETag"), direct.Body, routed.Code, routed.Header().Get("ETag"), routed.Body)
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 24; i++ {
		axis := make([]int16, 256)
		for k := range axis {
			axis[k] = int16(rng.Intn(4096) - 2048)
		}
		x := restapi.EncodeAxis(axis)
		both(http.MethodPost, "/api/v1/measurements", fmt.Sprintf(
			`{"pump_id":%d,"service_days":%g,"sample_rate_hz":4000,"scale_g":0.003,"x":%q,"y":%q,"z":%q}`, i%5, float64(i)*0.5, x, x, x))
	}
	both(http.MethodPost, "/api/v1/measurements", ingestBody(0, 0)) // duplicate key: 409 on both
	for pump := 0; pump < 6; pump++ {                               // pump 5 has no data: 404 on both
		for _, view := range []string{"trend", "trend?metric=vrms&points=4", "faults", "measurements", "psd"} {
			both(http.MethodGet, fmt.Sprintf("/api/v1/pumps/%d/%s", pump, view), "")
		}
		both(http.MethodGet, fmt.Sprintf("/api/v1/analysis/pumps/%d/zone", pump), "")
	}
}

// TestRouterBodyCapFollowsMembers: the router buffers an ingest body
// under the members' own cap — a lowered cap is refused at the router
// before anything is buffered past it, and a raised cap lets a body
// past the 8 MiB default through to the owning member.
func TestRouterBodyCapFollowsMembers(t *testing.T) {
	cases := []struct {
		name      string
		cap       int64
		bodyBytes int
		atRouter  bool
	}{
		{"cap 1 KiB refuses 2 KiB at the router", 1 << 10, 2 << 10, true},
		{"cap 16 MiB passes 9 MiB to the member", 16 << 20, 9 << 20, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := memberWAL(store.WALOptions{Policy: store.SyncNever})
			opts.Node.MaxBodyBytes = tc.cap
			c, err := Open(t.TempDir(), MemberNames(2), opts)
			if err != nil {
				t.Fatal(err)
			}
			defer c.abortAll()
			body := `{"pump_id":1,"pad":"` + strings.Repeat("x", tc.bodyBytes) + `"}`
			w := httptest.NewRecorder()
			c.Router().ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/measurements", strings.NewReader(body)))
			node := w.Header().Get(NodeHeader)
			if tc.atRouter {
				if w.Code != http.StatusRequestEntityTooLarge || node != "" {
					t.Fatalf("status %d served by %q, want the router's own 413", w.Code, node)
				}
				return
			}
			// The padded body carries no samples, so the member answers
			// 400 — what matters is that the member answered.
			if w.Code != http.StatusBadRequest || node != c.ring.Route(1) {
				t.Fatalf("status %d served by %q, want the owner's 400: %s", w.Code, node, w.Body.String())
			}
		})
	}
}

// TestRouterClusterStatusEndpoint: the status JSON the router serves.
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
	w = httptest.NewRecorder()
	rt.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/api/v1/cluster/status", nil))
	if err := json.Unmarshal(w.Body.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	if st.Live != 2 {
		t.Fatalf("live = %d after kill", st.Live)
	}
}
