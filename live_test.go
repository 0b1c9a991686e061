package vibepm_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"vibepm"
	"vibepm/internal/core"
	"vibepm/internal/dataset"
	"vibepm/internal/physics"
	"vibepm/internal/store"
	"vibepm/internal/stream"
)

// equivTol is the equivalence budget of the proof harness. The live
// path is designed to be bit-identical to the batch path (same
// functions, same records), so the 1e-9 budget exists only to decouple
// the harness from that stronger claim.
const equivTol = 1e-9

// liveDataset is the canonical fleet corpus shared by the equivalence
// tests: 12 pumps over 20 days, small captures so 50+ randomized
// replays stay fast. Generated once; records are immutable and safe to
// share across engines and trials.
var (
	liveDatasetOnce sync.Once
	liveDatasetVal  *dataset.Dataset
	liveDatasetErr  error
)

func liveCorpus(t *testing.T) *dataset.Dataset {
	t.Helper()
	liveDatasetOnce.Do(func() {
		liveDatasetVal, liveDatasetErr = dataset.Generate(dataset.Config{
			Seed:               101,
			DurationDays:       20,
			MeasurementsPerDay: 1,
			Samples:            256,
			LabelCounts: map[physics.MergedZone]int{
				physics.MergedA:  30,
				physics.MergedBC: 60,
				physics.MergedD:  30,
			},
		})
	})
	if liveDatasetErr != nil {
		t.Fatal(liveDatasetErr)
	}
	return liveDatasetVal
}

// streamRecords flattens the corpus's dense trend measurements into
// one canonical slice (pump-major, time-ordered) for shuffling.
func streamRecords(ds *dataset.Dataset) []*vibepm.Record {
	var out []*vibepm.Record
	for _, id := range ds.Measurements.Pumps() {
		out = append(out, ds.Measurements.All(id)...)
	}
	return out
}

// newLiveEngine builds an engine over a store holding only the
// labelled records and fits it. Every proof below compares what this
// engine serves through its live state with a pure function of the same
// records: BatchCleanTrend, Baseline.Da, FaultDetector.Detect.
func newLiveEngine(t *testing.T, ds *dataset.Dataset) *vibepm.Engine {
	t.Helper()
	eng := vibepm.NewWithStores(vibepm.Options{}, store.NewMeasurements(), ds.Labels)
	for _, lr := range ds.LabelledRecords {
		eng.Ingest(lr.Record)
	}
	if err := eng.Fit(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func identityAge(_ int, serviceDays float64) float64 { return serviceDays }

// diffTrends compares two trends point by point within equivTol.
func diffTrends(t *testing.T, ctx string, got, want []vibepm.TrendPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: trend has %d points, reference %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].AgeDays-want[i].AgeDays) > equivTol ||
			math.Abs(got[i].Da-want[i].Da) > equivTol {
			t.Fatalf("%s: point %d diverged: served (%.12g, %.12g) reference (%.12g, %.12g)",
				ctx, i, got[i].AgeDays, got[i].Da, want[i].AgeDays, want[i].Da)
		}
	}
}

// compareTrend checks one pump's CleanTrend — memo-served, cached —
// against the sequential, cache-free BatchCleanTrend.
func compareTrend(t *testing.T, ctx string, eng *vibepm.Engine, pumpID int) {
	t.Helper()
	got, gotErr := eng.CleanTrend(pumpID, identityAge)
	want, wantErr := eng.BatchCleanTrend(pumpID, identityAge)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: pump %d error parity broken: served %v, reference %v", ctx, pumpID, gotErr, wantErr)
	}
	if gotErr == nil {
		diffTrends(t, ctx, got, want)
	}
}

// referenceClassifier rebuilds the engine's fitted zone classifier from
// its saved model — the zones' reference, computed off the engine.
func referenceClassifier(t *testing.T, eng *vibepm.Engine) *core.GaussianClassifier {
	t.Helper()
	var buf bytes.Buffer
	if err := eng.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	var st vibepm.ModelState
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		t.Fatal(err)
	}
	clf, err := core.NewGaussianFromState(st.Classifier)
	if err != nil {
		t.Fatal(err)
	}
	return clf
}

// compareZone checks one record's served D_a bitwise against
// Baseline().Da(rec), and its zone and posteriors against the reference
// classifier applied to that score.
func compareZone(t *testing.T, ctx string, eng *vibepm.Engine, clf *core.GaussianClassifier, rec *vibepm.Record) {
	t.Helper()
	base, err := eng.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	want, wantErr := base.Da(rec)
	got, gotErr := eng.Da(rec)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s: pump %d D_a error parity: served %v, reference %v", ctx, rec.PumpID, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: pump %d D_a %v, reference %v", ctx, rec.PumpID, got, want)
	}
	zone, probs, err := eng.Classify(rec)
	if err != nil {
		t.Fatalf("%s: pump %d classify: %v", ctx, rec.PumpID, err)
	}
	if wz, wp := clf.Predict(want), clf.Probabilities(want); zone != wz || !reflect.DeepEqual(probs, wp) {
		t.Fatalf("%s: pump %d zone %v %v, reference %v %v", ctx, rec.PumpID, zone, probs, wz, wp)
	}
}

// compareRUL learns the lifetime models through the engine and checks
// them, and every pump's RUL, against the pure pipeline: RANSAC over the
// concatenated BatchCleanTrends, and the learned models' projection of
// each pump's BatchCleanTrend.
func compareRUL(t *testing.T, ctx string, eng *vibepm.Engine) {
	t.Helper()
	models, err := eng.LearnLifetimeModels(identityAge)
	if err != nil {
		t.Fatalf("%s: LearnLifetimeModels: %v", ctx, err)
	}
	var points []vibepm.TrendPoint
	pumps := eng.Measurements().Pumps()
	for _, id := range pumps {
		trend, err := eng.BatchCleanTrend(id, identityAge)
		if err == nil {
			points = append(points, trend...)
		}
	}
	boundary, _ := eng.Boundary()
	want, err := core.LearnLifetimeModels(points, boundary)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(models, want) {
		t.Fatalf("%s: lifetime models %+v, reference %+v", ctx, models, want)
	}
	for _, id := range pumps {
		rul, model, err := eng.PredictRUL(id, identityAge)
		trend, trendErr := eng.BatchCleanTrend(id, identityAge)
		var wantRUL float64
		var wantModel int
		if trendErr == nil {
			wantRUL, wantModel, trendErr = models.PredictRULForTrend(trend)
		}
		if (err == nil) != (trendErr == nil) {
			t.Fatalf("%s: pump %d RUL error parity: served %v, reference %v", ctx, id, err, trendErr)
		}
		if err == nil && (model != wantModel || math.Abs(rul-wantRUL) > equivTol) {
			t.Fatalf("%s: pump %d RUL (%.12g, model %d), reference (%.12g, model %d)", ctx, id, rul, model, wantRUL, wantModel)
		}
	}
}

// TestLiveBatchEquivalenceProperty is the equivalence proof harness:
// the same dataset is streamed into an engine in 50+ randomized orders
// and batch sizes, and at every prefix the touched pump's memo-served
// trend must match BatchCleanTrend within 1e-9. Mid-stream and final
// snapshots extend the check to the whole fleet — every latest record's
// D_a bitwise against Baseline.Da, its zone against the reference
// classifier — and every tenth trial's final snapshot proves the
// lifetime models and RULs against the pure pipeline. Every fourth
// trial ingests through the durable wiring a vibed with a WAL has,
// where the fold runs beside the append and is planted after it.
func TestLiveBatchEquivalenceProperty(t *testing.T) {
	ds := liveCorpus(t)
	canonical := streamRecords(ds)
	if len(canonical) == 0 {
		t.Fatal("empty canonical stream")
	}
	trials := 50
	if testing.Short() {
		trials = 8
	}
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) * 7919))
		recs := append([]*vibepm.Record(nil), canonical...)
		rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		batchSize := 1 + rng.Intn(8)
		eng := newLiveEngine(t, ds)
		clf := referenceClassifier(t, eng)
		ingest := eng.Ingest
		var durable *store.Durable
		if trial%4 == 1 {
			var err error
			durable, _, err = store.OpenDurable(t.TempDir(), store.DurableOptions{Store: eng.Measurements()})
			if err != nil {
				t.Fatal(err)
			}
			in := stream.Ingester{Store: eng.Measurements(), Durable: durable, Live: eng.Live()}
			ingest = in.Ingest
		}
		snapshots := map[int]bool{
			len(recs) / 3:     true,
			2 * len(recs) / 3: true,
			len(recs):         true,
		}
		for lo := 0; lo < len(recs); lo += batchSize {
			hi := min(lo+batchSize, len(recs))
			for _, rec := range recs[lo:hi] {
				if _, err := ingest(rec); err != nil {
					t.Fatalf("trial %d: ingest: %v", trial, err)
				}
			}
			// Every prefix: the pump the batch last touched must agree.
			compareTrend(t, fmt.Sprintf("trial %d prefix", trial), eng, recs[hi-1].PumpID)
			if snapshots[hi] {
				ctx := fmt.Sprintf("trial %d snapshot %d", trial, hi)
				for _, id := range eng.Measurements().Pumps() {
					compareTrend(t, ctx, eng, id)
					compareZone(t, ctx, eng, clf, eng.Measurements().Latest(id))
				}
			}
		}
		if trial%10 == 0 {
			compareRUL(t, fmt.Sprintf("trial %d final", trial), eng)
		}
		if durable != nil {
			durable.Abort()
		}
	}
}

// liveGolden is the canonical-fleet snapshot pinned by
// testdata/live_golden.json: the live-path trends, zones and RULs of
// the whole fleet after streaming the corpus in canonical order.
type liveGolden struct {
	Boundary float64                        `json:"boundary_da"`
	Trends   map[string][]vibepm.TrendPoint `json:"trends"`
	Zones    map[string]string              `json:"zones"`
	RULs     map[string]float64             `json:"ruls"`
}

// TestLiveGoldenFleet pins the live path's output on one canonical
// fleet to a committed golden file (regenerate with
// `go test -run LiveGolden -update`). Drift here means the incremental
// path changed analysis results — exactly what the equivalence
// guarantee forbids.
func TestLiveGoldenFleet(t *testing.T) {
	ds := liveCorpus(t)
	liveEng := newLiveEngine(t, ds)
	for _, rec := range streamRecords(ds) {
		liveEng.Ingest(rec)
	}
	if _, err := liveEng.LearnLifetimeModels(identityAge); err != nil {
		t.Fatal(err)
	}
	got := liveGolden{
		Trends: map[string][]vibepm.TrendPoint{},
		Zones:  map[string]string{},
		RULs:   map[string]float64{},
	}
	got.Boundary, _ = liveEng.Boundary()
	for _, id := range liveEng.Measurements().Pumps() {
		key := keyOf(id)
		trend, err := liveEng.CleanTrend(id, identityAge)
		if err != nil {
			t.Fatal(err)
		}
		got.Trends[key] = trend
		zone, _, err := liveEng.Classify(liveEng.Measurements().Latest(id))
		if err != nil {
			t.Fatal(err)
		}
		got.Zones[key] = zone.String()
		if rul, _, err := liveEng.PredictRUL(id, identityAge); err == nil {
			got.RULs[key] = rul
		}
	}
	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	goldenPath := filepath.Join("testdata", "live_golden.json")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if string(buf) != string(want) {
		t.Errorf("live fleet snapshot drifted from %s\ngot:  %s\nwant: %s", goldenPath, buf, want)
	}
}

func keyOf(id int) string { return fmt.Sprintf("pump-%02d", id) }

// TestLiveTrendEdgeCases table-drives the trend-path edge cases the
// live memo must invalidate through: an empty series, a single point, a
// maintenance-event reset (post-overhaul captures on top of the memo
// the old history filled), a dead-sensor gap, and a baseline swap
// (every D_a the memo holds scored against a baseline no longer in
// force). In every case the served trend must carry the exact
// error/trend parity of BatchCleanTrend.
func TestLiveTrendEdgeCases(t *testing.T) {
	ds := liveCorpus(t)
	ingestDays := func(eng *vibepm.Engine, pump int, days ...float64) {
		for _, day := range days {
			eng.Ingest(ds.Capture(pump, day))
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, eng *vibepm.Engine)
	}{
		{
			name: "empty series",
			run: func(t *testing.T, eng *vibepm.Engine) {
				// Pump 999 has no measurements: both must agree on the error.
				compareTrend(t, "empty", eng, 999)
			},
		},
		{
			name: "single point",
			run: func(t *testing.T, eng *vibepm.Engine) {
				rec := ds.Capture(0, 3.25)
				eng.Ingest(&vibepm.Record{
					PumpID:       999,
					ServiceDays:  rec.ServiceDays,
					SampleRateHz: rec.SampleRateHz,
					ScaleG:       rec.ScaleG,
					Raw:          rec.Raw,
				})
				compareTrend(t, "single", eng, 999)
			},
		},
		{
			name: "maintenance-event reset",
			run: func(t *testing.T, eng *vibepm.Engine) {
				ingestDays(eng, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
				compareTrend(t, "pre-maintenance", eng, 3)
				// The overhaul: post-maintenance captures stream in on top
				// of the memo the old history filled. The next query must
				// rebuild cleanly from it.
				ingestDays(eng, 3, 11, 12, 13, 14, 15, 16)
				compareTrend(t, "post-maintenance", eng, 3)
			},
		},
		{
			name: "dead-sensor gap",
			run: func(t *testing.T, eng *vibepm.Engine) {
				// Ten days of data, ten days of silence, then two late
				// captures: the smoothing windows straddle the gap.
				ingestDays(eng, 6, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 19.5, 19.9)
				compareTrend(t, "gap", eng, 6)
			},
		},
		{
			name: "baseline swap",
			run: func(t *testing.T, eng *vibepm.Engine) {
				ingestDays(eng, 5, 1, 2, 3, 4, 5, 6, 7, 8)
				compareTrend(t, "first baseline", eng, 5)
				// A model trained with other extraction options replaces the
				// baseline the memo scored every record against.
				other := vibepm.NewWithStores(vibepm.Options{Harmonic: vibepm.HarmonicOptions{NumPeaks: 10}}, eng.Measurements(), ds.Labels)
				if err := other.Fit(); err != nil {
					t.Fatal(err)
				}
				var model bytes.Buffer
				if err := other.SaveModel(&model); err != nil {
					t.Fatal(err)
				}
				if err := eng.LoadModel(&model); err != nil {
					t.Fatal(err)
				}
				compareTrend(t, "second baseline", eng, 5)
				compareZone(t, "second baseline", eng, referenceClassifier(t, eng), eng.Measurements().Latest(5))
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.run(t, newLiveEngine(t, ds))
		})
	}
}
