package node

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"vibepm/internal/dataset"
	"vibepm/internal/obs"
	"vibepm/internal/physics"
	"vibepm/internal/restapi"
	"vibepm/internal/store"
)

// corpusOptions returns the options of a node over a small seeded,
// labelled corpus with its durable store in dir — what `vibed
// -simulate -wal-dir dir` builds, scaled down. Every call regenerates
// the same corpus, as a restarted process would.
func corpusOptions(t *testing.T, dir string) Options {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Seed: 5, Pumps: 6, DurationDays: 40, MeasurementsPerDay: 0.5, Samples: 512,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA: 25, physics.MergedBC: 50, physics.MergedD: 25,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return Options{
		Dir:          dir,
		Measurements: ds.Measurements,
		Labels:       ds.Labels,
		AgeOf: func(pumpID int, serviceDays float64) float64 {
			return ds.Fleet.Pump(pumpID).UnitAgeDays(serviceDays)
		},
		Faults: true,
	}
}

func mustOpen(t *testing.T, opts Options) *Node {
	t.Helper()
	n, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Abort)
	return n
}

// ingestBody is the i-th POST of a seeded stream: a 1× tone at 29 Hz
// plus noise, on pumps 0..3, at service times past the corpus. The
// scale and the sample rate are values float32 cannot hold: the record
// codec keeps both as float32, so the restart tests below only see the
// same bodies because the ingest seam rounds them before the live fold
// sees the record.
func ingestBody(rng *rand.Rand, i int) []byte {
	var axes [3][]int16
	for a := range axes {
		axes[a] = make([]int16, 512)
		for k := range axes[a] {
			axes[a][k] = int16(600*math.Sin(2*math.Pi*29*float64(k)/4000) + float64(rng.Intn(200)-100))
		}
	}
	body, _ := json.Marshal(restapi.IngestRequest{
		PumpID: i % 4, ServiceDays: 100 + float64(i)*0.5, SampleRateHz: 4000.1, ScaleG: 0.003,
		X: restapi.EncodeAxis(axes[0]), Y: restapi.EncodeAxis(axes[1]), Z: restapi.EncodeAxis(axes[2]),
	})
	return body
}

func postStream(t *testing.T, h http.Handler, seed int64, k int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < k; i++ {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/measurements", bytes.NewReader(ingestBody(rng, i))))
		if w.Code != http.StatusCreated {
			t.Fatalf("ingest %d: status %d: %s", i, w.Code, w.Body)
		}
	}
}

func get(h http.Handler, path string) (int, string) {
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, path, nil))
	return w.Code, w.Body.String()
}

// views are the derived bodies a restart must reproduce: trend and
// fault status of the pumps the stream wrote to, and the fleet report.
func views(t *testing.T, h http.Handler) map[string]string {
	t.Helper()
	out := map[string]string{}
	for _, path := range []string{
		"/api/v1/pumps/0/trend", "/api/v1/pumps/1/trend?metric=vrms", "/api/v1/pumps/3/trend?points=16",
		"/api/v1/pumps/0/faults", "/api/v1/pumps/2/faults",
		"/api/v1/analysis/fleet",
	} {
		code, body := get(h, path)
		if code != http.StatusOK {
			t.Fatalf("GET %s: status %d: %s", path, code, body)
		}
		out[path] = body
	}
	return out
}

func sameViews(t *testing.T, when string, got, want map[string]string) {
	t.Helper()
	for path, body := range want {
		if got[path] != body {
			t.Errorf("%s: GET %s differs from before the restart\n got: %.200s\nwant: %.200s", when, path, got[path], body)
		}
	}
}

// TestNodeCleanRestart: Close takes the final checkpoint, so the next
// Open restarts from the snapshot alone and serves the same bodies.
func TestNodeCleanRestart(t *testing.T) {
	dir := t.TempDir()
	n := mustOpen(t, corpusOptions(t, dir))
	postStream(t, n.Handler, 1, 12)
	before := views(t, n.Handler)
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	again := mustOpen(t, corpusOptions(t, dir))
	rs := again.Recovery
	if !rs.SnapshotLoaded || rs.Replay.Records != 0 || rs.Replayed != 0 {
		t.Fatalf("clean restart was not snapshot-only: %+v", rs)
	}
	if rs.SnapshotRecords != again.Store.Len() || again.Live.Size() != again.Store.Len() {
		t.Fatalf("snapshot %d, store %d, live %d records", rs.SnapshotRecords, again.Store.Len(), again.Live.Size())
	}
	sameViews(t, "after Close", views(t, again.Handler), before)
}

// TestNodeCrashRestart: after an Abort the next Open replays the WAL,
// checkpoints what it replayed (so the Open after that replays
// nothing), and serves the same bodies.
func TestNodeCrashRestart(t *testing.T) {
	dir := t.TempDir()
	n := mustOpen(t, corpusOptions(t, dir))
	postStream(t, n.Handler, 2, 12)
	before := views(t, n.Handler)
	n.Abort()

	second := mustOpen(t, corpusOptions(t, dir))
	if rs := second.Recovery; rs.Replayed != 12 {
		t.Fatalf("crash restart replayed %d records, want 12: %+v", rs.Replayed, rs)
	}
	sameViews(t, "after Abort", views(t, second.Handler), before)
	second.Abort()

	third := mustOpen(t, corpusOptions(t, dir))
	if rs := third.Recovery; !rs.SnapshotLoaded || rs.Replayed != 0 {
		t.Fatalf("the post-recovery checkpoint did not run: third open recovered %+v", rs)
	}
	sameViews(t, "after the second Abort", views(t, third.Handler), before)
}

// TestNodeOpenScoresDaAtWarmUp: with labels the node fits before it
// warms, so the warm-up folds already carry D_a against the fitted
// baseline and the first analysis request re-runs no DSP — scoring
// every stored record is cache hits only.
func TestNodeOpenScoresDaAtWarmUp(t *testing.T) {
	n := mustOpen(t, corpusOptions(t, t.TempDir()))
	hits := obs.Default.Counter("vibepm_stream_cache_hits_total")
	misses := obs.Default.Counter("vibepm_stream_cache_misses_total")
	h0, m0 := hits.Value(), misses.Value()
	scored := 0
	for _, id := range n.Store.Pumps() {
		for _, rec := range n.Store.All(id) {
			if _, err := n.Engine.Da(rec); err != nil {
				t.Fatalf("pump %d t=%g: %v", id, rec.ServiceDays, err)
			}
			scored++
		}
	}
	if dh, dm := hits.Value()-h0, misses.Value()-m0; dm != 0 || dh != uint64(scored) {
		t.Fatalf("scoring %d warmed records: %d cache hits, %d misses; want all hits", scored, dh, dm)
	}
}

// TestNodeOpenTransformsEachRecordOnce: a restart with labels computes
// each stored record's spectrum once. The fit's scan folds the labelled
// records — a Zone A pair's fold from the spectrum TrainBaseline
// averages — and the warm-up finds them folded, so there are no other
// spectra.
func TestNodeOpenTransformsEachRecordOnce(t *testing.T) {
	opts := corpusOptions(t, t.TempDir())
	zoneA := 0
	for _, lab := range opts.Labels.Valid() {
		if lab.Zone == physics.MergedA {
			zoneA++
		}
	}
	if zoneA == 0 {
		t.Fatal("no Zone A label: the fit trains no baseline")
	}
	psds := obs.Default.Counter("vibepm_transform_psd_total")
	p0 := psds.Value()
	n := mustOpen(t, opts)
	if d, want := psds.Value()-p0, uint64(n.Store.Len()); d != want {
		t.Fatalf("Open computed %d spectra, want %d: one per stored record (%d Zone A pairs among them)", d, want, zoneA)
	}
}

// TestNodeOpenClassifiesEachPumpsLatest: a restart with labels and
// Faults runs the fault detector once per pump, on the latest record
// FaultStatus reads, so every pump's status is then a memo hit.
func TestNodeOpenClassifiesEachPumpsLatest(t *testing.T) {
	opts := corpusOptions(t, t.TempDir())
	detects := obs.Default.Histogram("vibepm_feature_detect_seconds", obs.StageBuckets)
	d0 := detects.Count()
	n := mustOpen(t, opts)
	pumps := n.Store.Pumps()
	if d := detects.Count() - d0; d != uint64(len(pumps)) {
		t.Fatalf("Open ran the detector %d times over %d records, want %d (one per pump)", d, n.Store.Len(), len(pumps))
	}
	hits := obs.Default.Counter("vibepm_stream_cache_hits_total")
	misses := obs.Default.Counter("vibepm_stream_cache_misses_total")
	h0, m0, d0 := hits.Value(), misses.Value(), detects.Count()
	for _, id := range pumps {
		if _, err := n.Engine.FaultStatus(id); err != nil {
			t.Fatalf("pump %d: %v", id, err)
		}
	}
	if dh, dm, dd := hits.Value()-h0, misses.Value()-m0, detects.Count()-d0; dh != uint64(len(pumps)) || dm != 0 || dd != 0 {
		t.Fatalf("fault status of %d pumps: %d hits, %d misses, %d detects; want all hits", len(pumps), dh, dm, dd)
	}
}

// TestNodeWithoutLabels: a node opened with no labels (a cluster
// member) skips the fit; everything that needs no fitted engine serves
// and the analysis routes say so with 503.
func TestNodeWithoutLabels(t *testing.T) {
	n := mustOpen(t, Options{Dir: t.TempDir(), Faults: true})
	if n.Engine.Fitted() {
		t.Fatal("engine fitted without labels")
	}
	postStream(t, n.Handler, 3, 4)
	for path, want := range map[string]int{
		"/api/v1/pumps/0/trend":          http.StatusOK,
		"/api/v1/pumps/0/faults":         http.StatusOK,
		"/api/v1/pumps/0/psd":            http.StatusOK,
		"/api/v1/pumps/0/measurements":   http.StatusOK,
		"/api/v1/analysis/boundary":      http.StatusServiceUnavailable,
		"/api/v1/analysis/pumps/0/zone":  http.StatusServiceUnavailable,
		"/api/v1/analysis/pumps/0/rul":   http.StatusServiceUnavailable,
		"/api/v1/analysis/fleet":         http.StatusServiceUnavailable,
		"/api/v1/pumps/99/trend":         http.StatusNotFound,
		"/debug/pprof/":                  http.StatusNotFound,
		"/api/v1/pumps/0/trend?metric=x": http.StatusBadRequest,
	} {
		if code, body := get(n.Handler, path); code != want {
			t.Errorf("GET %s: status %d, want %d: %s", path, code, want, body)
		}
	}
}

// TestNodeInMemory: without Dir there is no durable store, and the
// lifecycle calls are no-ops rather than nil dereferences.
func TestNodeInMemory(t *testing.T) {
	n := mustOpen(t, Options{Pprof: true})
	if n.Durable != nil {
		t.Fatal("durable store without Dir")
	}
	n.StartMaintenance(0, 0)
	stored, err := n.Ingest(&store.Record{PumpID: 1, ServiceDays: 1, SampleRateHz: 4000, ScaleG: 0.003,
		Raw: [3][]int16{{1, 2, 3, 4}, {1, 2, 3, 4}, {1, 2, 3, 4}}})
	if err != nil || !stored || n.Live.Size() != 1 {
		t.Fatalf("ingest: stored=%v err=%v live=%d", stored, err, n.Live.Size())
	}
	if code, _ := get(n.Handler, "/debug/pprof/cmdline"); code != http.StatusOK {
		t.Fatalf("pprof not mounted: %d", code)
	}
	if code, _ := get(n.Handler, "/api/v1/pumps/1/faults"); code != http.StatusNotFound {
		t.Fatalf("faults served without Options.Faults: %d", code)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeSnapshotIsAuthoritative: over a directory that holds a
// snapshot, the corpus Open is handed does not matter — recovery
// replaces it with the snapshot's records, and the node serves the
// bodies it served before. This is what lets vibed skip reading a
// corpus file the snapshot would replace.
func TestNodeSnapshotIsAuthoritative(t *testing.T) {
	dir := t.TempDir()
	n := mustOpen(t, corpusOptions(t, dir))
	postStream(t, n.Handler, 4, 8)
	before, records := views(t, n.Handler), n.Store.Len()
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}

	other, err := dataset.Generate(dataset.Config{Seed: 6, Pumps: 3, DurationDays: 20, MeasurementsPerDay: 0.5, Samples: 256})
	if err != nil {
		t.Fatal(err)
	}
	opts := corpusOptions(t, dir)
	opts.Measurements = other.Measurements
	again := mustOpen(t, opts)
	if rs := again.Recovery; !rs.SnapshotLoaded || rs.SnapshotRecords != records || again.Store.Len() != records {
		t.Fatalf("store holds %d records after recovery %+v, want the snapshot's %d", again.Store.Len(), rs, records)
	}
	sameViews(t, "over another corpus", views(t, again.Handler), before)
}

// snapshotGate holds every write to a snapshot temp until release is
// closed, announcing the first on entered.
type snapshotGate struct {
	once             sync.Once
	entered, release chan struct{}
}

// gatedFile is a snapshot temp behind a snapshotGate.
type gatedFile struct {
	gate *snapshotGate
	store.SegmentFile
}

func (f gatedFile) Write(p []byte) (int, error) {
	f.gate.once.Do(func() { close(f.gate.entered) })
	<-f.gate.release
	return f.SegmentFile.Write(p)
}

// TestNodeServesDuringPostRecoveryCheckpoint: readiness is "recovered,
// fitted and warmed". Open returns and serves the fleet view while the
// post-recovery checkpoint is still writing its snapshot; Close waits
// for that checkpoint, after which the next Open replays nothing.
func TestNodeServesDuringPostRecoveryCheckpoint(t *testing.T) {
	dir := t.TempDir()
	n := mustOpen(t, corpusOptions(t, dir))
	postStream(t, n.Handler, 5, 10)
	before := views(t, n.Handler)
	n.Abort()

	gate := &snapshotGate{entered: make(chan struct{}), release: make(chan struct{})}
	var released sync.Once
	unblock := func() { released.Do(func() { close(gate.release) }) }
	defer unblock() // a failed check must not leave Close waiting
	opts := corpusOptions(t, dir)
	opts.Durable.WAL.WrapFile = func(path string, f *os.File) store.SegmentFile {
		if strings.HasPrefix(filepath.Base(path), "snapshot.bin.tmp") {
			return gatedFile{gate, f}
		}
		return f
	}
	second := mustOpen(t, opts)
	if rs := second.Recovery; rs.Replayed != 10 {
		t.Fatalf("crash restart replayed %d records, want 10", rs.Replayed)
	}
	select {
	case <-gate.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("no post-recovery checkpoint reached its snapshot write")
	}
	code, body := get(second.Handler, "/api/v1/analysis/fleet")
	if code != http.StatusOK || body != before["/api/v1/analysis/fleet"] {
		t.Fatalf("fleet view during the checkpoint: status %d, same body %v", code, body == before["/api/v1/analysis/fleet"])
	}
	// An ingest during the checkpoint lands in the log behind its cut.
	raw := make([]int16, 512)
	for k := range raw {
		raw[k] = int16(k%64 - 32)
	}
	rec := &store.Record{PumpID: 0, ServiceDays: 500, SampleRateHz: 4000, ScaleG: 0.003, Raw: [3][]int16{raw, raw, raw}}
	if stored, err := second.Ingest(rec); err != nil || !stored {
		t.Fatalf("ingest during the checkpoint: stored=%v err=%v", stored, err)
	}
	after := views(t, second.Handler)

	closed := make(chan error, 1)
	go func() { closed <- second.Close() }()
	select {
	case err := <-closed:
		t.Fatalf("Close returned (%v) while the post-recovery checkpoint was blocked", err)
	case <-time.After(50 * time.Millisecond):
	}
	unblock()
	if err := <-closed; err != nil {
		t.Fatal(err)
	}

	third := mustOpen(t, corpusOptions(t, dir))
	if rs := third.Recovery; !rs.SnapshotLoaded || rs.Replay.Records != 0 || rs.Replayed != 0 {
		t.Fatalf("Open after Close replayed the log: %+v", rs)
	}
	sameViews(t, "after the checkpoint", views(t, third.Handler), after)
}
