package vibepm

import (
	"bytes"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"vibepm/internal/dataset"
	"vibepm/internal/feature"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// fitEngine builds an engine over a small synthetic corpus and fits it.
func fitEngine(t *testing.T, seed int64) (*Engine, *dataset.Dataset) {
	t.Helper()
	ds := smallDataset(t, seed)
	eng := NewWithStores(Options{}, ds.Measurements, ds.Labels)
	if err := eng.Fit(); err != nil {
		t.Fatal(err)
	}
	return eng, ds
}

// smallDataset is fitEngine's corpus: 40 days of one capture a day,
// 160 labels.
func smallDataset(t *testing.T, seed int64) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Seed:               seed,
		DurationDays:       40,
		MeasurementsPerDay: 1,
		Samples:            1024,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA:  40,
			physics.MergedBC: 80,
			physics.MergedD:  40,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestFitWithTwoBinHannWindow: Hann(2) = [0 0] has no mass, so n_h = 2
// smooths nothing, as n_h = 1 and 3 do, and the engine fits. Smoothed
// with it, every spectrum read all zeros and had no peak, and Fit
// failed with "no scorable labelled measurements".
func TestFitWithTwoBinHannWindow(t *testing.T) {
	ds := smallDataset(t, 47)
	eng := NewWithStores(Options{Harmonic: feature.Options{HannWindow: 2}}, ds.Measurements, ds.Labels)
	if err := eng.Fit(); err != nil {
		t.Fatal(err)
	}
	if b, err := eng.Boundary(); err != nil || !(b > 0) {
		t.Fatalf("boundary %v (err %v), want a positive one", b, err)
	}
	for _, lr := range ds.ValidLabelled() {
		if _, err := eng.Da(lr.Record); err != nil {
			t.Fatalf("record of pump %d, day %v: %v", lr.Record.PumpID, lr.Record.ServiceDays, err)
		}
	}
}

func ageFuncFor(ds *dataset.Dataset) AgeFunc {
	return func(pumpID int, serviceDays float64) float64 {
		return ds.Fleet.Pump(pumpID).UnitAgeDays(serviceDays)
	}
}

func TestEngineUnfittedErrors(t *testing.T) {
	eng := New(Options{})
	if _, err := eng.Da(&Record{}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := eng.Classify(&Record{}); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v", err)
	}
	if _, err := eng.Boundary(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v", err)
	}
	if _, err := eng.Baseline(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v", err)
	}
	if _, err := eng.Densities(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v", err)
	}
	if _, err := eng.Models(); !errors.Is(err, ErrNoRULModel) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := eng.PredictRUL(0, nil); !errors.Is(err, ErrNoRULModel) {
		t.Fatalf("err = %v", err)
	}
	if err := eng.Fit(); !errors.Is(err, ErrNoData) {
		t.Fatalf("Fit on empty engine: %v", err)
	}
	if _, err := eng.LearnLifetimeModels(nil); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v", err)
	}
}

func TestEngineFitAndClassify(t *testing.T) {
	eng, ds := fitEngine(t, 1)
	if !eng.Fitted() {
		t.Fatal("engine not fitted")
	}
	b, err := eng.Boundary()
	if err != nil {
		t.Fatal(err)
	}
	if b <= 0 || b > 1 {
		t.Fatalf("boundary %.3f out of plausible range", b)
	}
	// Classification accuracy on the labelled corpus must be high.
	correct, total := 0, 0
	for _, lr := range ds.ValidLabelled() {
		zone, probs, err := eng.Classify(lr.Record)
		if err != nil {
			t.Fatal(err)
		}
		if zone == lr.Zone {
			correct++
		}
		total++
		var sum float64
		for _, p := range probs {
			sum += p
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("posterior sum %.3f", sum)
		}
	}
	acc := float64(correct) / float64(total)
	if acc < 0.85 {
		t.Fatalf("in-corpus accuracy %.3f", acc)
	}
}

func TestEngineDaOrdering(t *testing.T) {
	eng, ds := fitEngine(t, 2)
	// Average Da must be ordered A < BC < D over the labelled corpus.
	sums := map[Zone]float64{}
	counts := map[Zone]int{}
	for _, lr := range ds.ValidLabelled() {
		da, err := eng.Da(lr.Record)
		if err != nil {
			t.Fatal(err)
		}
		sums[lr.Zone] += da
		counts[lr.Zone]++
	}
	meanA := sums[ZoneA] / float64(counts[ZoneA])
	meanBC := sums[ZoneBC] / float64(counts[ZoneBC])
	meanD := sums[ZoneD] / float64(counts[ZoneD])
	if !(meanA < meanBC && meanBC < meanD) {
		t.Fatalf("Da ordering broken: %.4f %.4f %.4f", meanA, meanBC, meanD)
	}
}

func TestEngineLifetimeModelsAndRUL(t *testing.T) {
	eng, ds := fitEngine(t, 3)
	age := ageFuncFor(ds)
	models, err := eng.LearnLifetimeModels(age)
	if err != nil {
		t.Fatal(err)
	}
	if len(models.Models) == 0 {
		t.Fatal("no lifetime models")
	}
	// Every model must be an ageing (positive-slope) trend.
	for _, m := range models.Models {
		if m.Slope <= 0 {
			t.Fatalf("model slope %g", m.Slope)
		}
	}
	// RUL prediction runs for every pump and is ordered sensibly: a
	// young pump has more RUL than an old pump on the same model.
	rulByPump := map[int]float64{}
	for _, id := range eng.Measurements().Pumps() {
		rul, modelIdx, err := eng.PredictRUL(id, age)
		if err != nil {
			t.Fatal(err)
		}
		if modelIdx < 0 || modelIdx >= len(models.Models) {
			t.Fatalf("model index %d", modelIdx)
		}
		rulByPump[id] = rul
	}
	// Ground-truth consistency: pumps currently in Zone D should have
	// lower predicted RUL than pumps in Zone A.
	var rulA, rulD []float64
	for id, rul := range rulByPump {
		switch ds.Fleet.Pump(id).ZoneAt(ds.Config.DurationDays).Merged() {
		case ZoneA:
			rulA = append(rulA, rul)
		case ZoneD:
			rulD = append(rulD, rul)
		}
	}
	if len(rulA) > 0 && len(rulD) > 0 {
		if mean(rulD) >= mean(rulA) {
			t.Fatalf("Zone D pumps predicted more RUL (%.0f) than Zone A pumps (%.0f)", mean(rulD), mean(rulA))
		}
	}
}

func TestEngineEvaluateMetric(t *testing.T) {
	eng, ds := fitEngine(t, 4)
	conf, err := eng.EvaluateMetric(MetricPeakHarmonic, 15, nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if acc := conf.Accuracy(); acc < 0.8 {
		t.Fatalf("peak-harmonic accuracy %.3f at 15 training samples", acc)
	}
	// Temperature should be near chance (needs the FICS source).
	tempSrc := tempSource{ds: ds}
	confT, err := eng.EvaluateMetric(MetricTemperature, 15, tempSrc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if confT.Accuracy() >= conf.Accuracy() {
		t.Fatalf("temperature (%.3f) should underperform peak-harmonic (%.3f)",
			confT.Accuracy(), conf.Accuracy())
	}
	// nTrain too large errors.
	if _, err := eng.EvaluateMetric(MetricPeakHarmonic, 1_000_000, nil, 7); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
}

// tempSource adapts the dataset fleet to the FICS temperature
// interface.
type tempSource struct{ ds *dataset.Dataset }

func (t tempSource) Temperature(pumpID int, serviceDays float64) float64 {
	return t.ds.Fleet.Pump(pumpID).TemperatureAt(serviceDays)
}

func TestEngineCleanTrendErrors(t *testing.T) {
	eng, ds := fitEngine(t, 5)
	if _, err := eng.CleanTrend(999, ageFuncFor(ds)); !errors.Is(err, ErrNoData) {
		t.Fatalf("err = %v", err)
	}
}

func mean(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

func TestCleanTrendCacheConsistency(t *testing.T) {
	eng, ds := fitEngine(t, 33)
	age := ageFuncFor(ds)
	first, err := eng.CleanTrend(0, age)
	if err != nil {
		t.Fatal(err)
	}
	second, err := eng.CleanTrend(0, age)
	if err != nil {
		t.Fatal(err)
	}
	if len(first) != len(second) {
		t.Fatalf("cached trend length changed: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("cached trend diverged at %d", i)
		}
	}
	// The returned slice must not alias the cache.
	second[0].Da = 999
	third, err := eng.CleanTrend(0, age)
	if err != nil {
		t.Fatal(err)
	}
	if third[0].Da == 999 {
		t.Fatal("cache aliased by caller mutation")
	}
	// A different age function is honored even on a cache hit.
	doubled, err := eng.CleanTrend(0, func(p int, d float64) float64 { return 2 * age(p, d) })
	if err != nil {
		t.Fatal(err)
	}
	if doubled[0].AgeDays != 2*first[0].AgeDays {
		t.Fatalf("age func ignored on cache hit: %g vs %g", doubled[0].AgeDays, first[0].AgeDays)
	}
	// Ingesting a new record invalidates the pump's entry.
	eng.Ingest(ds.Capture(0, 1234))
	fresh, err := eng.CleanTrend(0, age)
	if err != nil {
		t.Fatal(err)
	}
	if len(fresh) <= len(first) {
		t.Fatalf("new record not reflected: %d vs %d", len(fresh), len(first))
	}
}

// TestEngineIngestIsTheSeam: Engine.Ingest is a third front end on
// stream.Ingester, so it refuses what REST refuses, stores a key once,
// and keeps the float32 metadata a restart would recover.
func TestEngineIngestIsTheSeam(t *testing.T) {
	eng, ds := fitEngine(t, 46)
	m := eng.Measurements()
	const pump, day = 0, 39.75

	bad := ds.Capture(pump, day)
	bad.Raw[2] = bad.Raw[2][:10]
	n, total := m.Len(), m.GenerationTotal()
	if stored, err := eng.Ingest(bad); stored || !errors.Is(err, ErrInvalidRecord) {
		t.Fatalf("unequal axes: stored=%v err=%v, want ErrInvalidRecord", stored, err)
	}
	if m.Len() != n || m.GenerationTotal() != total {
		t.Fatal("a refused record changed the store")
	}

	rec := ds.Capture(pump, day)
	rec.ScaleG = 0.003 // not a float32: the codec would store 0.003000000026…
	if stored, err := eng.Ingest(rec); !stored || err != nil {
		t.Fatalf("fresh record: stored=%v err=%v", stored, err)
	}
	if want := float64(float32(0.003)); rec.ScaleG != want {
		t.Fatalf("ScaleG = %v after Ingest, want the codec's %v", rec.ScaleG, want)
	}
	n, gen := m.Len(), m.Generation(pump)
	if stored, err := eng.Ingest(ds.Capture(pump, day)); stored || err != nil {
		t.Fatalf("repeat: stored=%v err=%v, want false, nil", stored, err)
	}
	if m.Len() != n || m.Generation(pump) != gen || m.Query(pump, day, day)[0] != rec {
		t.Fatal("a repeat changed the store")
	}

	// What the engine scored in memory is what a restarted one scores.
	var snap, model bytes.Buffer
	if err := m.Save(&snap); err != nil {
		t.Fatal(err)
	}
	if err := eng.SaveModel(&model); err != nil {
		t.Fatal(err)
	}
	restored := NewWithStores(Options{}, store.NewMeasurements(), nil)
	if err := restored.Measurements().Load(&snap); err != nil {
		t.Fatal(err)
	}
	if err := restored.LoadModel(&model); err != nil {
		t.Fatal(err)
	}
	want, err := eng.Da(rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Da(restored.Measurements().Query(pump, day, day)[0])
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("Da after Save → Load = %v, in memory %v", got, want)
	}
}

func TestEngineFitWithoutHealthyLabels(t *testing.T) {
	// A corpus with no Zone A labels cannot train the baseline.
	eng := New(Options{})
	ds, err := dataset.Generate(dataset.Config{
		Seed: 44, DurationDays: 40, MeasurementsPerDay: 0.5, SkipTrend: true,
		LabelCounts: map[physics.MergedZone]int{physics.MergedBC: 20, physics.MergedD: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range ds.LabelledRecords {
		eng.Ingest(lr.Record)
		if err := eng.AddLabel(Label{
			PumpID: lr.Record.PumpID, ServiceDays: lr.Record.ServiceDays,
			Zone: lr.Zone, Valid: lr.Valid,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Fit(); err == nil {
		t.Fatal("Fit without Zone A labels must fail")
	}
}

func TestEngineBoundaryFallbackWithoutZoneD(t *testing.T) {
	// Without Zone D labels the BC/D boundary cannot be located; Fit
	// still succeeds (classification between A and BC works) and the
	// boundary reports its zero fallback.
	eng := New(Options{})
	ds, err := dataset.Generate(dataset.Config{
		Seed: 45, DurationDays: 40, MeasurementsPerDay: 0.5, SkipTrend: true,
		LabelCounts: map[physics.MergedZone]int{physics.MergedA: 20, physics.MergedBC: 20},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, lr := range ds.LabelledRecords {
		eng.Ingest(lr.Record)
		if err := eng.AddLabel(Label{
			PumpID: lr.Record.PumpID, ServiceDays: lr.Record.ServiceDays,
			Zone: lr.Zone, Valid: lr.Valid,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.Fit(); err != nil {
		t.Fatal(err)
	}
	b, err := eng.Boundary()
	if err != nil {
		t.Fatal(err)
	}
	if b != 0 {
		t.Fatalf("fallback boundary %g, want 0", b)
	}
	// A/BC classification still functions.
	rec := ds.Capture(4, 39.5) // nearly-new pump
	zone, _, err := eng.Classify(rec)
	if err != nil {
		t.Fatal(err)
	}
	if zone != ZoneA {
		t.Fatalf("healthy pump classified %v", zone)
	}
}

// TestEngineAnswersWithTheLiveStatesFit: the live state is the one
// holder of the installed fit, so a baseline and a detector installed
// through Live() are what the engine's reads answer with — it keeps no
// copy of its own to prefer.
func TestEngineAnswersWithTheLiveStatesFit(t *testing.T) {
	eng, _ := fitEngine(t, 29)
	other, _ := fitEngine(t, 31)
	base, _ := other.Baseline()
	det := feature.NewFaultDetector(MachineSpec{})
	eng.Live().SetBaseline(base)
	eng.Live().SetFaultDetector(det)

	if got, err := eng.Baseline(); err != nil || got != base {
		t.Fatalf("Baseline() = (%p, %v), want the installed %p", got, err, base)
	}
	rec := eng.Measurements().Latest(0)
	want, err := base.Da(rec)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := eng.Da(rec); err != nil || got != want {
		t.Fatalf("Da = (%g, %v), want the installed baseline's %g", got, err, want)
	}
	zone, probs, err := eng.Classify(rec)
	if err != nil || zone != eng.classifier.Predict(want) || !reflect.DeepEqual(probs, eng.classifier.Probabilities(want)) {
		t.Fatalf("Classify = (%v, %v, %v), want the zone of D_a %g", zone, probs, err, want)
	}
	st, err := eng.FaultStatus(0)
	if err != nil {
		t.Fatalf("FaultStatus with a detector installed through Live(): %v", err)
	}
	if !reflect.DeepEqual(st.FaultReport, det.Detect(rec)) {
		t.Fatal("FaultStatus diverged from the installed detector's report")
	}
	var buf bytes.Buffer
	if err := eng.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	var state ModelState
	if err := json.Unmarshal(buf.Bytes(), &state); err != nil {
		t.Fatal(err)
	}
	saved, _ := json.Marshal(state.Baseline)
	installed, _ := json.Marshal(base)
	if !bytes.Equal(saved, installed) {
		t.Fatal("SaveModel wrote a baseline other than the installed one")
	}
}
