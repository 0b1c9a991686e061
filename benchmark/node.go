package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"

	"vibepm"
	"vibepm/internal/restapi"
	"vibepm/internal/store"
)

// node is a vibed assembled in-process with the options
// cmd/vibed/main.go uses for `-data D -wal-dir W -faults=true`:
// LoadFile → OpenDurable → NewWithStores → EnableFaults → EnableLive →
// (post-recovery Checkpoint) → WarmLive → Fit → restapi.New(WithLive,
// WithFaults, WithDurable) + NewAnalysis. It runs no background
// checkpoint loop: the traced pass is one goroutine.
type node struct {
	measurements *store.Measurements
	durable      *store.Durable
	recovery     store.RecoveryStats
	eng          *vibepm.Engine
	live         *vibepm.LiveState
	mux          *http.ServeMux
	warmed       int
}

// buildNode assembles a node, recording one span per stage under
// parent when t is non-nil.
func buildNode(dataDir, walDir string, wal store.DurableOptions, t *tracer, parent int) (*node, error) {
	if t == nil {
		t = newTracer()
	}
	n := &node{measurements: store.NewMeasurements()}
	labels := store.NewLabels()
	var err error
	stage := func(name string, fn func() error) {
		if err == nil {
			t.span(name, parent, 0, false, func() { err = fn() })
			if err != nil {
				err = fmt.Errorf("%s: %w", name, err)
			}
		}
	}
	stage("store.load_file_s", func() error {
		if err := n.measurements.LoadFile(filepath.Join(dataDir, "measurements.bin")); err != nil {
			return err
		}
		return labels.LoadFile(filepath.Join(dataDir, "labels.json"))
	})
	stage("store.open_durable", func() error {
		wal.Store = n.measurements
		var err error
		n.durable, n.recovery, err = store.OpenDurable(walDir, wal)
		return err
	})
	if err != nil {
		return nil, err
	}
	n.eng = vibepm.NewWithStores(vibepm.Options{}, n.measurements, labels)
	n.eng.EnableFaults(vibepm.MachineSpec{}, vibepm.FaultOptions{})
	n.live = n.eng.EnableLive()
	if n.recovery.Replayed > 0 || n.recovery.Replay.Truncated() {
		// vibed overlaps this with the warm-up; one goroutine runs them
		// back to back, which trace.gap_ms then shows.
		stage("store.post_recovery_checkpoint_s", func() error { _, err := n.durable.Checkpoint(); return err })
	}
	stage("stream.warm_s", func() error { n.warmed = n.eng.WarmLive(); return nil })
	stage("engine.fit_s", n.eng.Fit)
	stage("restapi.new", func() error {
		periods, err := store.NewPeriodManager(store.AnalysisPeriod{StartDays: 0, EndDays: 1e9}, 1.0/24)
		if err != nil {
			return err
		}
		n.mux = http.NewServeMux()
		n.mux.Handle("/api/v1/analysis/", restapi.NewAnalysis(n.eng, serviceAge))
		n.mux.Handle("/api/v1/", restapi.New(n.measurements, labels, periods,
			restapi.WithLive(n.live), restapi.WithFaults(n.eng), restapi.WithDurable(n.durable)))
		return nil
	})
	if err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

// close drops the node the way a crash would: no final checkpoint.
func (n *node) close() {
	if n.durable != nil {
		n.durable.Abort()
	}
}

// serve runs one request through the node's handlers; the span named
// name covers ServeHTTP alone, not building the request.
func (n *node) serve(t *tracer, name string, parent, op int, method, path string, body []byte, ifNoneMatch string) (*httptest.ResponseRecorder, int) {
	var req *http.Request
	if body != nil {
		req = httptest.NewRequest(method, path, bytes.NewReader(body))
	} else {
		req = httptest.NewRequest(method, path, nil)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	rec := httptest.NewRecorder()
	id := t.span(name, parent, op, false, func() { n.mux.ServeHTTP(rec, req) })
	return rec, id
}
