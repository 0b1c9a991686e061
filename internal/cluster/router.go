package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"strings"

	"vibepm/internal/restapi"
)

// NodeHeader is set on every routed response so load generators and
// operators can attribute a request to the member that served it.
const NodeHeader = "X-Vibepm-Node"

// Router is the thin routing tier in front of a cluster: it reads the
// pump id out of each request (the {id} path segment, or the pump_id
// field of an ingest body) and dispatches the request to the ring
// owner's handler. Requests with no pump affinity (fleet listings,
// health, metrics) go to a deterministic live member, and are answered
// from that one member's view. The router holds no data of its own;
// killing it loses nothing.
type Router struct {
	c *Cluster
	// maxBodyBytes is the members' ingest body cap: the router buffers
	// an ingest body to find its pump id, so it bounds it exactly as
	// the member will.
	maxBodyBytes int64
}

// Router returns the routing tier over the cluster's members. It also
// serves GET /api/v1/cluster/status.
func (c *Cluster) Router() *Router {
	maxBody := c.opts.Node.MaxBodyBytes
	if maxBody <= 0 {
		maxBody = restapi.DefaultMaxBodyBytes
	}
	return &Router{c: c, maxBodyBytes: maxBody}
}

// pumpFromPath extracts the {id} of /api/v1/pumps/{id}/... paths.
func pumpFromPath(path string) (int, bool) {
	const prefix = "/api/v1/pumps/"
	rest, ok := strings.CutPrefix(path, prefix)
	if !ok || rest == "" {
		return 0, false
	}
	idStr, _, _ := strings.Cut(rest, "/")
	id, err := strconv.Atoi(idStr)
	if err != nil {
		return 0, false
	}
	return id, true
}

// routerErr writes a minimal JSON error.
func routerErr(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

// ServeHTTP implements http.Handler.
func (rt *Router) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method == http.MethodGet && r.URL.Path == "/api/v1/cluster/status" {
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(rt.c.Status())
		return
	}

	var owner string
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/api/v1/measurements":
		// The pump id lives in the body; buffer it (bounded — the same
		// cap the member enforces) so the owning node can re-read it.
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, rt.maxBodyBytes))
		if err != nil {
			// Only the byte-cap error is 413; everything else (client
			// disconnect, truncated chunked body) is the client's bad
			// request, not an oversized one.
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				routerErr(w, http.StatusRequestEntityTooLarge, "request body too large")
			} else {
				routerErr(w, http.StatusBadRequest, "unreadable request body")
			}
			return
		}
		var peek struct {
			PumpID *int `json:"pump_id"`
		}
		if err := json.Unmarshal(body, &peek); err != nil || peek.PumpID == nil {
			routerErr(w, http.StatusBadRequest, "bad measurement: missing pump_id")
			return
		}
		r.Body = io.NopCloser(bytes.NewReader(body))
		r.ContentLength = int64(len(body))
		owner = rt.c.ring.Route(*peek.PumpID)
	default:
		if id, ok := pumpFromPath(r.URL.Path); ok {
			owner = rt.c.ring.Route(id)
		} else {
			// No pump affinity: pin the path to a member so repeated
			// requests (and their response caches) stay put.
			owner = rt.c.ring.RouteKey(r.URL.Path)
		}
	}
	if owner == "" {
		routerErr(w, http.StatusServiceUnavailable, "no live cluster members")
		return
	}

	w.Header().Set(NodeHeader, owner)
	metForwards.Inc()
	rt.c.Node(owner).Handler.ServeHTTP(w, r)
}
