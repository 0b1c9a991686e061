package vibepm_test

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"vibepm"
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

// newEquivEngines builds the live engine and the batch reference
// engine over separate stores holding only the labelled records, fits
// both, and returns them. Both see identical store contents at fit
// time, so their trained baselines are value-identical.
func newEquivEngines(t *testing.T, ds *dataset.Dataset) (liveEng, batchEng *vibepm.Engine) {
	t.Helper()
	liveEng = vibepm.NewWithStores(vibepm.Options{}, store.NewMeasurements(), ds.Labels)
	liveEng.EnableLive()
	batchEng = vibepm.NewWithStores(vibepm.Options{}, store.NewMeasurements(), ds.Labels)
	for _, lr := range ds.LabelledRecords {
		liveEng.Ingest(lr.Record)
		batchEng.Ingest(lr.Record)
	}
	if err := liveEng.Fit(); err != nil {
		t.Fatal(err)
	}
	if err := batchEng.Fit(); err != nil {
		t.Fatal(err)
	}
	return liveEng, batchEng
}

func identityAge(_ int, serviceDays float64) float64 { return serviceDays }

// diffTrends compares two trends point by point within equivTol.
func diffTrends(t *testing.T, ctx string, got, want []vibepm.TrendPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: live trend has %d points, batch %d", ctx, len(got), len(want))
	}
	for i := range got {
		if math.Abs(got[i].AgeDays-want[i].AgeDays) > equivTol ||
			math.Abs(got[i].Da-want[i].Da) > equivTol {
			t.Fatalf("%s: point %d diverged: live (%.12g, %.12g) batch (%.12g, %.12g)",
				ctx, i, got[i].AgeDays, got[i].Da, want[i].AgeDays, want[i].Da)
		}
	}
}

// compareTrend checks one pump's live CleanTrend against the batch
// engine's CleanTrend AND the cache-free reference recomputation.
func compareTrend(t *testing.T, ctx string, liveEng, batchEng *vibepm.Engine, pumpID int) {
	t.Helper()
	liveTrend, liveErr := liveEng.CleanTrend(pumpID, identityAge)
	batchTrend, batchErr := batchEng.CleanTrend(pumpID, identityAge)
	if (liveErr == nil) != (batchErr == nil) {
		t.Fatalf("%s: pump %d error parity broken: live %v, batch %v", ctx, pumpID, liveErr, batchErr)
	}
	if liveErr != nil {
		return
	}
	diffTrends(t, ctx, liveTrend, batchTrend)
	refTrend, refErr := liveEng.BatchCleanTrend(pumpID, identityAge)
	if refErr != nil {
		t.Fatalf("%s: pump %d reference recompute: %v", ctx, pumpID, refErr)
	}
	diffTrends(t, ctx+" (vs reference)", liveTrend, refTrend)
}

// TestLiveBatchEquivalenceProperty is the batch-equivalence proof
// harness: the same dataset is streamed into a live-path engine in 50+
// randomized orders and batch sizes, and at every prefix the touched
// pump's incremental trend must match the batch engine (and the
// cache-free reference) within 1e-9. Mid-stream and final snapshots
// extend the check to the whole fleet, zone classifications included;
// the final snapshot also proves RUL equivalence. Every fourth trial
// ingests through the durable wiring a vibed with a WAL has, where the
// fold runs beside the append and is planted after it: the same
// prefixes, compared after overlapped ingests.
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
		liveEng, batchEng := newEquivEngines(t, ds)
		ingest := liveEng.Ingest
		var durable *store.Durable
		if trial%4 == 1 {
			var err error
			durable, _, err = store.OpenDurable(t.TempDir(), store.DurableOptions{Store: liveEng.Measurements()})
			if err != nil {
				t.Fatal(err)
			}
			in := stream.Ingester{Store: liveEng.Measurements(), Durable: durable, Live: liveEng.Live()}
			ingest = in.Ingest
		}
		snapshots := map[int]bool{
			len(recs) / 3:     true,
			2 * len(recs) / 3: true,
			len(recs):         true,
		}
		for lo := 0; lo < len(recs); lo += batchSize {
			hi := lo + batchSize
			if hi > len(recs) {
				hi = len(recs)
			}
			for _, rec := range recs[lo:hi] {
				if _, err := ingest(rec); err != nil {
					t.Fatalf("trial %d: live ingest: %v", trial, err)
				}
				batchEng.Ingest(rec)
			}
			// Every prefix: the pump the batch last touched must agree.
			compareTrend(t, "prefix", liveEng, batchEng, recs[hi-1].PumpID)
			if snapshots[hi] {
				// Mid-stream snapshot: the whole fleet agrees, zones
				// included.
				for _, id := range liveEng.Measurements().Pumps() {
					compareTrend(t, "snapshot", liveEng, batchEng, id)
					latest := liveEng.Measurements().Latest(id)
					lz, lp, lerr := liveEng.Classify(latest)
					bz, bp, berr := batchEng.Classify(latest)
					if (lerr == nil) != (berr == nil) {
						t.Fatalf("trial %d: pump %d classify error parity: %v vs %v", trial, id, lerr, berr)
					}
					if lerr != nil {
						continue
					}
					if lz != bz {
						t.Fatalf("trial %d: pump %d zone %v != %v", trial, id, lz, bz)
					}
					for zone, p := range bp {
						if math.Abs(lp[zone]-p) > equivTol {
							t.Fatalf("trial %d: pump %d P(%v) %.12g != %.12g", trial, id, zone, lp[zone], p)
						}
					}
				}
			}
		}
		// Final snapshot: RUL equivalence over the fully-streamed store.
		if trial%10 == 0 {
			if _, err := liveEng.LearnLifetimeModels(identityAge); err != nil {
				t.Fatalf("trial %d: live LearnLifetimeModels: %v", trial, err)
			}
			if _, err := batchEng.LearnLifetimeModels(identityAge); err != nil {
				t.Fatalf("trial %d: batch LearnLifetimeModels: %v", trial, err)
			}
			for _, id := range liveEng.Measurements().Pumps() {
				lr, lm, lerr := liveEng.PredictRUL(id, identityAge)
				br, bm, berr := batchEng.PredictRUL(id, identityAge)
				if (lerr == nil) != (berr == nil) {
					t.Fatalf("trial %d: pump %d RUL error parity: %v vs %v", trial, id, lerr, berr)
				}
				if lerr != nil {
					continue
				}
				if lm != bm || math.Abs(lr-br) > equivTol {
					t.Fatalf("trial %d: pump %d RUL (%.12g, model %d) != (%.12g, model %d)",
						trial, id, lr, lm, br, bm)
				}
			}
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
	liveEng, _ := newEquivEngines(t, ds)
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
// incremental cache must invalidate through: an empty series, a single
// point, a maintenance-event reset (live cache dropped, history
// replaced), and a dead-sensor gap. In every case the live result must
// carry the exact error/trend parity of the batch reference.
func TestLiveTrendEdgeCases(t *testing.T) {
	ds := liveCorpus(t)
	cases := []struct {
		name string
		run  func(t *testing.T, liveEng, batchEng *vibepm.Engine)
	}{
		{
			name: "empty series",
			run: func(t *testing.T, liveEng, batchEng *vibepm.Engine) {
				// Pump 999 has no measurements: both paths must agree on
				// the error.
				compareTrend(t, "empty", liveEng, batchEng, 999)
			},
		},
		{
			name: "single point",
			run: func(t *testing.T, liveEng, batchEng *vibepm.Engine) {
				rec := ds.Capture(0, 3.25)
				one := &vibepm.Record{
					PumpID:       999,
					ServiceDays:  rec.ServiceDays,
					SampleRateHz: rec.SampleRateHz,
					ScaleG:       rec.ScaleG,
					Raw:          rec.Raw,
				}
				liveEng.Ingest(one)
				batchEng.Ingest(one)
				compareTrend(t, "single", liveEng, batchEng, 999)
			},
		},
		{
			name: "maintenance-event reset",
			run: func(t *testing.T, liveEng, batchEng *vibepm.Engine) {
				for day := 1; day <= 10; day++ {
					rec := ds.Capture(3, float64(day))
					liveEng.Ingest(rec)
					batchEng.Ingest(rec)
				}
				compareTrend(t, "pre-maintenance", liveEng, batchEng, 3)
				// The overhaul: the live cache for the pump is dropped and
				// post-maintenance captures stream in. The next query must
				// rebuild cleanly from the cache-free state and still match
				// batch.
				liveEng.Live().ResetPump(3)
				for day := 11; day <= 16; day++ {
					rec := ds.Capture(3, float64(day))
					liveEng.Ingest(rec)
					batchEng.Ingest(rec)
				}
				compareTrend(t, "post-maintenance", liveEng, batchEng, 3)
			},
		},
		{
			name: "dead-sensor gap",
			run: func(t *testing.T, liveEng, batchEng *vibepm.Engine) {
				// Ten days of data, ten days of silence, then two late
				// captures: the smoothing windows straddle the gap.
				for day := 1; day <= 10; day++ {
					rec := ds.Capture(6, float64(day))
					liveEng.Ingest(rec)
					batchEng.Ingest(rec)
				}
				for _, day := range []float64{19.5, 19.9} {
					rec := ds.Capture(6, day)
					liveEng.Ingest(rec)
					batchEng.Ingest(rec)
				}
				compareTrend(t, "gap", liveEng, batchEng, 6)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			liveEng, batchEng := newEquivEngines(t, ds)
			tc.run(t, liveEng, batchEng)
		})
	}
}
