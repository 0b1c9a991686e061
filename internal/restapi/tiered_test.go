package restapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"

	"vibepm/internal/mems"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// tieredCorpus synthesizes a realistic two-pump corpus spanning days
// [0, 12): old enough that a tiered checkpoint with a 4-day hot window
// moves most of it cold.
func tieredCorpus(t *testing.T) []*store.Record {
	t.Helper()
	var recs []*store.Record
	for _, id := range []int{1, 2} {
		recs = append(recs, pumpCaptures(t, id, int64(id), 0, 48)...)
	}
	return recs
}

// pumpCaptures synthesizes n 256-sample captures of pump id, a quarter
// day apart from firstDay on, from a pump and sensor seeded by seed.
func pumpCaptures(t *testing.T, id int, seed int64, firstDay float64, n int) []*store.Record {
	t.Helper()
	pump := physics.NewPump(physics.PumpConfig{ID: id, Seed: seed})
	sensor, err := mems.New(mems.Config{Seed: 10 + seed})
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]*store.Record, n)
	for i := range recs {
		day := firstDay + float64(i)*0.25
		cap := sensor.Measure(pump, day, 256)
		rec := &store.Record{
			PumpID:       id,
			ServiceDays:  day,
			SampleRateHz: cap.SampleRateHz,
			ScaleG:       cap.ScaleG,
		}
		for axis := 0; axis < 3; axis++ {
			rec.Raw[axis] = cap.Raw[axis]
		}
		recs[i] = rec
	}
	return recs
}

// openTieredServer boots a durable+tiered store over dir, ingests recs,
// checkpoints (compacting the old range cold), and wraps it in an API
// server.
func openTieredServer(t *testing.T, dir string, recs []*store.Record) (*Server, *store.Durable) {
	t.Helper()
	d, _, err := store.OpenDurable(dir, store.DurableOptions{
		WAL: store.WALOptions{Policy: store.SyncNever},
		Tiered: &store.TieredOptions{
			HotWindowDays: 4,
			PartitionDays: 2,
			Metrics:       ColdMetrics(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := d.AddUnique(rec); err != nil {
			t.Fatal(err)
		}
	}
	if recs != nil {
		stats, err := d.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		if stats.Compaction.PartitionsWritten == 0 {
			t.Fatal("checkpoint compacted nothing; the equivalence below would be hot-vs-hot")
		}
	}
	return New(d.Store(), nil, nil, WithDurable(d)), d
}

// TestTrendHotColdEquivalence pins the acceptance bound: a trend query
// over a range the compactor moved cold returns byte-identical JSON to
// the same query served entirely from the hot store — after the first
// compaction, after a hot ingest on top of it, and after a second
// checkpoint that moves more of the series cold. Each step also retires
// the ETag the step before served.
func TestTrendHotColdEquivalence(t *testing.T) {
	recs := tieredCorpus(t)

	hot := store.NewMeasurements()
	for _, rec := range recs {
		hot.Add(rec)
	}
	hotSrv := New(hot, nil, nil)

	tieredSrv, d := openTieredServer(t, t.TempDir(), recs)
	defer d.Abort()
	if d.Cold().UpTo() <= 0 {
		t.Fatal("no cold coverage after checkpoint")
	}

	equivalent := func(step string) {
		t.Helper()
		for _, id := range []int{1, 2} {
			for _, metric := range []string{"rms", "vrms"} {
				for _, points := range []int{512, 16, 4096} {
					path := fmt.Sprintf("/api/v1/pumps/%d/trend?metric=%s&points=%d", id, metric, points)
					a := getTrend(t, hotSrv, path, "")
					b := getTrend(t, tieredSrv, path, "")
					if a.Code != http.StatusOK || b.Code != http.StatusOK {
						t.Fatalf("%s: %s: status hot=%d tiered=%d", step, path, a.Code, b.Code)
					}
					if !bytes.Equal(a.Body.Bytes(), b.Body.Bytes()) {
						t.Fatalf("%s: %s: tiered trend JSON differs from hot\nhot:    %s\ntiered: %s",
							step, path, a.Body.String(), b.Body.String())
					}
				}
			}
		}
	}
	// etagRetired checks that the ETag served before a step no longer
	// revalidates, and returns the one served now.
	etagRetired := func(step, etag string) string {
		t.Helper()
		if cond := getTrend(t, tieredSrv, "/api/v1/pumps/1/trend", etag); cond.Code != http.StatusOK {
			t.Fatalf("%s: revalidation with the previous ETag = %d, want 200", step, cond.Code)
		}
		return getTrend(t, tieredSrv, "/api/v1/pumps/1/trend", "").Header().Get("ETag")
	}

	equivalent("first compaction")

	// The tiered response is cached and revalidatable: repeat request
	// with the ETag is a bodyless 304 until a tier changes.
	first := getTrend(t, tieredSrv, "/api/v1/pumps/1/trend", "")
	etag := first.Header().Get("ETag")
	if etag == "" {
		t.Fatal("tiered trend carries no ETag")
	}
	if cond := getTrend(t, tieredSrv, "/api/v1/pumps/1/trend", etag); cond.Code != http.StatusNotModified {
		t.Fatalf("revalidation = %d, want 304", cond.Code)
	}

	// A hot ingest on top of the cold range: days [12, 17) of pump 1.
	coldGen := d.Cold().Generation()
	for _, rec := range pumpCaptures(t, 1, 3, 12, 20) {
		hot.Add(rec)
		if _, err := d.AddUnique(rec); err != nil {
			t.Fatal(err)
		}
	}
	if d.Cold().Generation() != coldGen {
		t.Fatal("an ingest moved the partition list")
	}
	equivalent("hot ingest")
	etag = etagRetired("hot ingest", etag)

	// A second checkpoint: the cutoff follows the new data, so more of
	// pump 1's and pump 2's series moves cold.
	upTo := d.Cold().UpTo()
	stats, err := d.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Compaction.PartitionsWritten == 0 || d.Cold().UpTo() <= upTo {
		t.Fatalf("second checkpoint compacted nothing (cold bound %g -> %g)", upTo, d.Cold().UpTo())
	}
	equivalent("second compaction")
	etagRetired("second compaction", etag)
}

// TestTrendFullyColdPump serves a pump whose every record lives in cold
// partitions: after a restart the hot store never heard of it, and the
// trend must still come back complete.
func TestTrendFullyColdPump(t *testing.T) {
	dir := t.TempDir()
	var recs []*store.Record
	pump := physics.NewPump(physics.PumpConfig{ID: 7, Seed: 7})
	sensor, err := mems.New(mems.Config{Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		day := float64(i) * 0.25 // days [0, 10): all below the cutoff once pump 8 exists
		cap := sensor.Measure(pump, day, 128)
		rec := &store.Record{PumpID: 7, ServiceDays: day, SampleRateHz: cap.SampleRateHz, ScaleG: cap.ScaleG}
		for axis := 0; axis < 3; axis++ {
			rec.Raw[axis] = cap.Raw[axis]
		}
		recs = append(recs, rec)
	}
	// A second pump far in the future pushes the global cutoff past
	// pump 7's whole history.
	far := &store.Record{PumpID: 8, ServiceDays: 40, SampleRateHz: 8000, ScaleG: 0.003}
	for axis := 0; axis < 3; axis++ {
		far.Raw[axis] = make([]int16, 64)
	}
	recs = append(recs, far)

	srv, d := openTieredServer(t, dir, recs)
	_ = srv
	d.Abort()

	// Reopen: pump 7 is not in the snapshot (all its records compacted),
	// so the hot store has generation 0 for it.
	d2, _, err := store.OpenDurable(dir, store.DurableOptions{
		WAL: store.WALOptions{Policy: store.SyncNever},
		Tiered: &store.TieredOptions{
			HotWindowDays: 4,
			PartitionDays: 2,
			Metrics:       ColdMetrics(),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Abort()
	if d2.Store().Generation(7) != 0 {
		t.Fatal("pump 7 still hot; test premise broken")
	}
	srv2 := New(d2.Store(), nil, nil, WithDurable(d2))
	rec := getTrend(t, srv2, "/api/v1/pumps/7/trend?metric=rms&points=4096", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("fully-cold trend = %d, body %s", rec.Code, rec.Body.String())
	}
	var resp TrendResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.TotalPoints != 40 || len(resp.Points) != 40 {
		t.Fatalf("fully-cold trend has %d/%d points, want 40/40", len(resp.Points), resp.TotalPoints)
	}
	// An unknown pump still 404s.
	if rec := getTrend(t, srv2, "/api/v1/pumps/99/trend", ""); rec.Code != http.StatusNotFound {
		t.Fatalf("unknown pump = %d, want 404", rec.Code)
	}
}

// TestStorageStatusEndpoint checks both shapes of the storage
// inventory: tiered and hot-only.
func TestStorageStatusEndpoint(t *testing.T) {
	recs := tieredCorpus(t)
	srv, d := openTieredServer(t, t.TempDir(), recs)
	defer d.Abort()

	rec, body := get(t, srv, "/api/v1/storage/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("status = %d", rec.Code)
	}
	if body["tiered"] != true {
		t.Fatalf("tiered = %v, want true", body["tiered"])
	}
	cold, ok := body["cold"].(map[string]any)
	if !ok {
		t.Fatalf("no cold block in %v", body)
	}
	if cold["partitions"].(float64) < 1 {
		t.Fatalf("partitions = %v, want >= 1", cold["partitions"])
	}
	if cold["compression_ratio"].(float64) < 2 {
		t.Fatalf("compression ratio = %v, want >= 2", cold["compression_ratio"])
	}
	if int(body["hot_records"].(float64))+int(cold["records"].(float64)) != len(recs) {
		t.Fatalf("hot %v + cold %v records != ingested %d", body["hot_records"], cold["records"], len(recs))
	}

	hotOnly := New(seedStore(t), nil, nil)
	rec, body = get(t, hotOnly, "/api/v1/storage/status")
	if rec.Code != http.StatusOK {
		t.Fatalf("hot-only status = %d", rec.Code)
	}
	if body["tiered"] != false {
		t.Fatalf("hot-only tiered = %v, want false", body["tiered"])
	}
	if _, present := body["cold"]; present {
		t.Fatal("hot-only status must omit the cold block")
	}
}
