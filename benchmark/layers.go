package main

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"vibepm"
	"vibepm/internal/feature"
	"vibepm/internal/preprocess"
	"vibepm/internal/restapi"
	"vibepm/internal/store"
	"vibepm/internal/stream"
)

// The traced pass of each workload: the same seeded inputs, one
// goroutine, in-process nodes, spans recorded here around each layer's
// public functions. README.md ("Traced run") states what a replayed
// child span is and is not.

// decodeRecord rebuilds the store record an ingest body carries, as the
// ingest handler does after json decoding.
func decodeRecord(req *restapi.IngestRequest) (*store.Record, error) {
	rec := &store.Record{PumpID: req.PumpID, ServiceDays: req.ServiceDays, SampleRateHz: req.SampleRateHz, ScaleG: req.ScaleG}
	for axis, payload := range []string{req.X, req.Y, req.Z} {
		raw, err := base64.StdEncoding.DecodeString(payload)
		if err != nil {
			return nil, err
		}
		rec.Raw[axis] = make([]int16, len(raw)/2)
		for i := range rec.Raw[axis] {
			rec.Raw[axis][i] = int16(binary.LittleEndian.Uint16(raw[2*i:]))
		}
	}
	return rec, nil
}

// twins are the per-option variants the ingest decomposition needs next
// to a full twin node: a durable store that never fsyncs and a live
// state without a fault detector.
type twins struct {
	nosync   *store.Durable
	noFaults *stream.LiveState
	baseline *feature.Baseline
	detector *feature.FaultDetector
}

func newTwins(e *env, n *node, dataDir string) (*twins, error) {
	m := store.NewMeasurements()
	if err := m.LoadFile(filepath.Join(dataDir, "measurements.bin")); err != nil {
		return nil, err
	}
	d, _, err := store.OpenDurable(filepath.Join(e.work, "twin-nosync"),
		store.DurableOptions{Store: m, WAL: store.WALOptions{Policy: store.SyncNever}})
	if err != nil {
		return nil, err
	}
	base, err := n.eng.Baseline()
	if err != nil {
		d.Abort()
		return nil, err
	}
	noFaults := stream.NewLiveState(stream.Config{})
	noFaults.SetBaseline(base)
	return &twins{nosync: d, noFaults: noFaults, baseline: base, detector: n.live.FaultDetector()}, nil
}

// replayWrite repeats, on the twin node and the per-option twins, the
// public calls the ingest handler made for rec under the root span,
// and records the derived per-op differences.
func replayWrite(t *tracer, root, op int, body []byte, twin *node, tw *twins) error {
	var req restapi.IngestRequest
	var err error
	t.span("restapi.json_decode", root, op, true, func() { err = json.Unmarshal(body, &req) })
	if err != nil {
		return err
	}
	rec, err := decodeRecord(&req)
	if err != nil {
		return err
	}
	add := t.span("store.add_unique", root, op, true, func() { _, err = twin.durable.AddUnique(rec) })
	if err != nil {
		return err
	}
	t.span("store.encode", add, op, true, func() { err = store.EncodeRecord(io.Discard, rec) })
	if err != nil {
		return err
	}
	nosync := t.span("store.wal_append_nosync", 0, op, true, func() { _, err = tw.nosync.AddUnique(rec) })
	if err != nil {
		return err
	}
	fold := t.span("stream.fold", root, op, true, func() { twin.live.Fold(rec) })
	t.span("feature.detect", fold, op, true, func() { tw.detector.Detect(rec) })
	t.span("feature.harmonic", fold, op, true, func() { feature.HarmonicOfRecord(rec, feature.Options{}) })
	t.span("feature.da", fold, op, true, func() { _, _ = tw.baseline.Da(rec) }) // timing only; the fold above scored it
	t.span("stream.fold_nofaults", 0, op, true, func() { tw.noFaults.Fold(rec) })

	t.observe("store.fsync_wait", t.durUS(add)-t.durUS(nosync))
	t.observe("restapi.ingest_self", t.durUS(root)-t.durUS(add)-t.durUS(fold))
	return nil
}

// tracedNodes builds the main node and its full twin over the saved
// corpus, each with its own WAL directory at -fsync always.
func tracedNodes(e *env, dataDir string) (n, twin *node, tw *twins, err error) {
	always := store.DurableOptions{WAL: store.WALOptions{Policy: store.SyncAlways}}
	if n, err = buildNode(dataDir, filepath.Join(e.work, "trace-wal"), always, nil, 0); err != nil {
		return nil, nil, nil, err
	}
	if twin, err = buildNode(dataDir, filepath.Join(e.work, "twin-wal"), always, nil, 0); err != nil {
		n.close()
		return nil, nil, nil, err
	}
	if tw, err = newTwins(e, n, dataDir); err != nil {
		n.close()
		twin.close()
		return nil, nil, nil, err
	}
	return n, twin, tw, nil
}

func (e *env) tracePath(workload string) string {
	return filepath.Join(e.out, "trace-"+workload+".json")
}

// finishTrace stores the medians, the sanity metrics and the span file.
func finishTrace(e *env, res *result, t *tracer, workload string, e2eMS, rootMS float64, roots ...string) error {
	t.report(res)
	res.PerLayer["trace.unattributed_share"] = t.unattributed(roots...)
	res.PerLayer["trace.gap_ms"] = e2eMS - rootMS
	res.Notes["trace_file"] = e.tracePath(workload)
	res.Notes["trace_spans"] = len(t.spans)
	return t.write(e.tracePath(workload))
}

func traceIngest(e *env, res *result, plan *ingestPlan, e2eMS float64) error {
	dataDir := filepath.Join(e.work, "data")
	n, twin, tw, err := tracedNodes(e, dataDir)
	if err != nil {
		return err
	}
	defer n.close()
	defer twin.close()
	defer tw.nosync.Abort()
	// As the child run did: learn the lifetime models before any write.
	t := newTracer()
	n.serve(t, "warm-up", 0, 0, http.MethodGet, "/api/v1/analysis/fleet", nil, "")

	pyramids := store.NewTrendCache()
	rms, _ := twin.live.MetricFunc("rms")
	deadline := time.Now().Add(e.window())
	for i := 0; i < len(plan.Ops) && time.Now().Before(deadline); i++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		op, body := plan.Ops[i], plan.body(i)
		if op.Kind == writeResend {
			if rec, _ := n.serve(t, "restapi.ingest_duplicate", 0, i, http.MethodPost, "/api/v1/measurements", body, ""); rec.Code != http.StatusConflict {
				return fmt.Errorf("traced re-send: status %d", rec.Code)
			}
			continue
		}
		rec, root := n.serve(t, "restapi.ingest_handler", 0, i, http.MethodPost, "/api/v1/measurements", body, "")
		if rec.Code != http.StatusCreated {
			return fmt.Errorf("traced POST: status %d: %.120s", rec.Code, rec.Body)
		}
		if err := replayWrite(t, root, i, body, twin, tw); err != nil {
			return err
		}
		// The read half of the operation: miss after the write, then a
		// repeat (hit) and a conditional repeat (304).
		path := fmt.Sprintf(ingestTrendPath, op.Pump)
		miss, missID := n.serve(t, "restapi.trend_miss", 0, i, http.MethodGet, path, nil, "")
		var pyr *store.Pyramid
		t.span("store.pyramid_build", missID, i, true, func() { pyr, _ = pyramids.Pyramid(twin.measurements, op.Pump, "rms", rms) })
		t.span("store.pyramid_downsample", missID, i, true, func() { pyr.Downsample(48) })
		hit, _ := n.serve(t, "restapi.trend_hit", 0, i, http.MethodGet, path, nil, "")
		cond, _ := n.serve(t, "restapi.trend_304", 0, i, http.MethodGet, path, nil, hit.Header().Get("ETag"))
		if miss.Code != http.StatusOK || hit.Code != http.StatusOK || cond.Code != http.StatusNotModified {
			return fmt.Errorf("traced trend reads: status %d, %d, %d", miss.Code, hit.Code, cond.Code)
		}
	}
	return finishTrace(e, res, t, "ingest_steady", e2eMS, median(t.us["restapi.ingest_handler"])/1e3, "restapi.ingest_handler")
}

func traceDashboard(e *env, res *result, c *corpus, plan *readPlan, e2eMS float64) error {
	dataDir := filepath.Join(e.work, "data")
	n, twin, tw, err := tracedNodes(e, dataDir)
	if err != nil {
		return err
	}
	defer n.close()
	defer twin.close()
	defer tw.nosync.Abort()
	t := newTracer()
	// The handler learns the lifetime models on the first fleet request;
	// the twin learns them by the public call, timed once.
	n.serve(t, "warm-up", 0, 0, http.MethodGet, "/api/v1/analysis/fleet", nil, "")
	t.span("engine.lifetime_models", 0, 0, true, func() { _, err = twin.eng.LearnLifetimeModels(serviceAge) })
	if err != nil {
		return err
	}
	if _, err := twin.eng.FleetReport(serviceAge); err != nil {
		return err
	}

	// What each cache last reflected, counted in writes to its scope:
	// a request is a miss when its scope was written since.
	fleet := c.sizes.Pumps
	writes := make([]int, c.sizes.Pumps+1)
	served := map[string]int{} // response caches, by URL
	etags := map[string]string{}
	cleaned := make([]int, c.sizes.Pumps) // engine trend cache, by pump
	built := map[string]int{}             // twin pyramid cache, by pump+metric
	pyramids := store.NewTrendCache()
	var readsUS []float64
	missRoots := []string{"restapi.trend_miss", "restapi.faults_miss", "restapi.rul_miss", "restapi.fleet_miss"}

	deadline := time.Now().Add(e.window())
	for i := 0; i < len(plan.Ops) && time.Now().Before(deadline); i++ {
		if err := e.ctx.Err(); err != nil {
			return err
		}
		op := plan.Ops[i]
		if op.Kind == readWrite {
			w := plan.Writes[op.Write]
			body := plan.Bodies[w.Body]
			rec, root := n.serve(t, "restapi.ingest_handler", 0, i, http.MethodPost, "/api/v1/measurements", body, "")
			if rec.Code != http.StatusCreated {
				return fmt.Errorf("traced POST: status %d: %.120s", rec.Code, rec.Body)
			}
			if err := replayWrite(t, root, i, body, twin, tw); err != nil {
				return err
			}
			writes[w.Pump]++
			writes[fleet]++
			continue
		}
		path, scope := op.path(), op.Pump
		if op.Kind == readFleet {
			scope = fleet
		}
		last, seen := served[path]
		fresh := seen && last == writes[scope]
		if op.Kind == readRUL {
			fresh = cleaned[op.Pump] == writes[op.Pump] // no response cache: the engine's trend cache decides
		}
		name, inm := "restapi."+readKindNames[op.Kind]+"_miss", ""
		switch {
		case fresh && op.Conditional && etags[path] != "":
			name, inm = "restapi."+readKindNames[op.Kind]+"_304", etags[path]
		case fresh:
			name = "restapi." + readKindNames[op.Kind] + "_hit"
		}
		rec, root := n.serve(t, name, 0, i, http.MethodGet, path, nil, inm)
		want := http.StatusOK
		if inm != "" {
			want = http.StatusNotModified
		}
		if rec.Code != want {
			return fmt.Errorf("traced GET %s as %s: status %d, want %d", path, name, rec.Code, want)
		}
		readsUS = append(readsUS, t.durUS(root))
		served[path] = writes[scope]
		if tag := rec.Header().Get("ETag"); tag != "" {
			etags[path] = tag
		}
		if op.Kind == readRUL || op.Kind == readFleet {
			for p := range cleaned {
				if op.Kind == readFleet || p == op.Pump {
					cleaned[p] = writes[p]
				}
			}
		}
		if fresh {
			continue
		}
		// The public calls behind a miss, repeated on the twin node.
		switch op.Kind {
		case readTrend:
			key := fmt.Sprintf("%d/%s", op.Pump, op.Metric)
			fn, _ := twin.live.MetricFunc(op.Metric)
			var pyr *store.Pyramid
			build := func() { pyr, _ = pyramids.Pyramid(twin.measurements, op.Pump, op.Metric, fn) }
			if b, ok := built[key]; ok && b == writes[op.Pump] {
				build() // another budget of this series already rebuilt the pyramid
			} else {
				t.span("store.pyramid_build", root, i, true, build)
				built[key] = writes[op.Pump]
			}
			t.span("store.pyramid_downsample", root, i, true, func() { pyr.Downsample(op.Points) })
		case readFaults:
			t.span("engine.fault_status", root, i, true, func() { _, err = twin.eng.FaultStatus(op.Pump) })
		case readRUL:
			var trend []vibepm.TrendPoint
			id := t.span("engine.clean_trend", root, i, true, func() { trend, err = twin.eng.CleanTrend(op.Pump, serviceAge) })
			if err == nil {
				replayPreprocess(t, id, i, twin, op.Pump, trend)
			}
		case readFleet:
			t.span("engine.fleet_report", root, i, true, func() { _, err = twin.eng.FleetReport(serviceAge) })
		}
		if err != nil {
			return fmt.Errorf("traced %s: %w", name, err)
		}
	}
	return finishTrace(e, res, t, "dashboard_read", e2eMS, median(readsUS)/1e3, missRoots...)
}

// replayPreprocess times the two whole-series passes inside a
// CleanTrend rebuild: mean-shift outlier detection over the pump's
// offset rows, and moving-average smoothing of its D_a series.
func replayPreprocess(t *tracer, parent, op int, n *node, pump int, trend []vibepm.TrendPoint) {
	rows := n.live.OffsetRows(pump, n.measurements.All(pump))
	t.span("preprocess.outliers", parent, op, true, func() {
		_, _, _ = preprocess.DetectOutliersPoints(rows, preprocess.OutlierConfig{}) // timing only
	})
	days, das := make([]float64, len(trend)), make([]float64, len(trend))
	for i, p := range trend {
		days[i], das[i] = p.AgeDays, p.Da
	}
	t.span("preprocess.smooth", parent, op, true, func() { preprocess.SmoothSeries(days, das, 1) })
}

// sampleFeatures times the per-record feature calls over a sample of
// records, for the workloads that reach them through a bulk pass
// (warm-up, batch scoring) and not one request at a time.
func sampleFeatures(t *tracer, parent int, recs []*store.Record, base *feature.Baseline, det *feature.FaultDetector) {
	ls := stream.NewLiveState(stream.Config{})
	ls.SetBaseline(base)
	if det != nil {
		ls.SetFaultDetector(det)
	}
	for i, rec := range recs {
		if det != nil {
			fold := t.span("stream.fold", parent, i, true, func() { ls.Fold(rec) })
			t.span("feature.detect", fold, i, true, func() { det.Detect(rec) })
		}
		t.span("feature.harmonic", parent, i, true, func() { feature.HarmonicOfRecord(rec, feature.Options{}) })
		t.span("feature.da", parent, i, true, func() { _, _ = base.Da(rec) }) // timing only
	}
}

// sampleRecords picks every k-th record of a store, up to n.
func sampleRecords(m *store.Measurements, n int) []*store.Record {
	var all []*store.Record
	for _, id := range m.Pumps() {
		all = append(all, m.All(id)...)
	}
	step := len(all)/n + 1
	var out []*store.Record
	for i := 0; i < len(all); i += step {
		out = append(out, all[i])
	}
	return out
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
		return nil
	})
	return n
}

func traceRecovery(e *env, res *result, dataDir, pristine string, e2eMS float64) error {
	dir := filepath.Join(e.work, "trace-restart")
	if err := copyTree(pristine, dir); err != nil {
		return err
	}
	t := newTracer()
	root := t.begin("recovery", 0, 0, false)
	n, err := buildNode(dataDir, dir, store.DurableOptions{WAL: store.WALOptions{Policy: store.SyncAlways}}, t, root)
	if err != nil {
		return err
	}
	defer n.close()
	rec, _ := n.serve(t, "engine.first_fleet_s", root, 0, http.MethodGet, "/api/v1/analysis/fleet", nil, "")
	t.end(root)
	if rec.Code != http.StatusOK {
		return fmt.Errorf("traced first fleet view: status %d", rec.Code)
	}
	rootMS := t.durUS(root) / 1e3

	t.observe("store.snapshot_load_s", float64(n.recovery.SnapshotLoadDuration)/1e3)
	t.observe("store.replay_s", float64(n.recovery.ReplayDuration)/1e3)
	res.PerLayer["store.replay_mb_per_s"] = ratio(float64(dirBytes(filepath.Join(pristine, "wal")))/1e6, n.recovery.ReplayDuration.Seconds())
	res.PerLayer["stream.warm_records_per_s"] = ratio(float64(n.warmed), t.us["stream.warm_s"][0]/1e6)

	// The sequential-replay baseline, on its own fresh copy.
	w1 := filepath.Join(e.work, "trace-restart-w1")
	if err := copyTree(pristine, w1); err != nil {
		return err
	}
	d, stats, err := store.OpenDurable(w1, store.DurableOptions{ReplayWorkers: 1})
	if err != nil {
		return err
	}
	d.Abort()
	t.observe("store.replay_s_w1", float64(stats.ReplayDuration)/1e3)

	base, err := n.eng.Baseline()
	if err != nil {
		return err
	}
	sampleFeatures(t, 0, sampleRecords(n.measurements, 200), base, n.live.FaultDetector())
	return finishTrace(e, res, t, "recovery_restart", e2eMS, rootMS, "recovery")
}

func traceBatch(e *env, res *result, c *corpus, untraced batchTimes, setupS float64) error {
	t := newTracer()
	root := t.begin("paper_batch", 0, 0, false)
	bt, err := paperBatch(res, c, e.seed, t, root)
	t.end(root)
	if err != nil {
		return err
	}
	// Corpus generation was timed by the set-up; regenerating here would
	// only repeat it.
	res.PerLayer["dataset.generate_s"] = setupS
	res.PerLayer["dataset.records_per_s"] = ratio(float64(c.ds.Measurements.Len()), setupS)

	eng := vibepm.NewWithStores(vibepm.Options{}, c.ds.Measurements, c.ds.Labels)
	if err := eng.Fit(); err != nil {
		return err
	}
	base, err := eng.Baseline()
	if err != nil {
		return err
	}
	sampleFeatures(t, 0, sampleRecords(c.ds.Measurements, 200), base, nil)
	if trendPts, err := eng.CleanTrend(0, serviceAge); err == nil {
		recs := c.ds.Measurements.All(0)
		t.span("preprocess.outliers", 0, 0, true, func() {
			_, _, _ = preprocess.DetectOutliers(recs, preprocess.OutlierConfig{}) // timing only
		})
		days, das := make([]float64, len(trendPts)), make([]float64, len(trendPts))
		for i, p := range trendPts {
			days[i], das[i] = p.AgeDays, p.Da
		}
		t.span("preprocess.smooth", 0, 0, true, func() { preprocess.SmoothSeries(days, das, 1) })
	}
	return finishTrace(e, res, t, "paper_batch", ms(untraced.total()), ms(bt.total()), "paper_batch")
}
