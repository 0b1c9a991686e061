package preprocess

import (
	"errors"
	"math"
	"slices"
	"testing"

	"vibepm/internal/mems"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// capture produces records of pump through the given sensor at the
// given days.
func capture(t *testing.T, pump *physics.Pump, sensor *mems.Sensor, days []float64) []*store.Record {
	t.Helper()
	out := make([]*store.Record, 0, len(days))
	for _, day := range days {
		m := sensor.Measure(pump, day, 512)
		rec := &store.Record{
			PumpID:       pump.ID(),
			ServiceDays:  day,
			SampleRateHz: m.SampleRateHz,
			ScaleG:       m.ScaleG,
		}
		for axis := 0; axis < 3; axis++ {
			rec.Raw[axis] = m.Raw[axis]
		}
		out = append(out, rec)
	}
	return out
}

func daysRange(n int, step float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(i) * step
	}
	return out
}

func TestAverages(t *testing.T) {
	pump := physics.NewPump(physics.PumpConfig{ID: 0, Seed: 1})
	sensor, _ := mems.New(mems.Config{Seed: 2})
	recs := capture(t, pump, sensor, daysRange(5, 1))
	avgs := Averages(recs)
	if len(avgs) != 5 {
		t.Fatalf("averages = %d", len(avgs))
	}
	for _, a := range avgs {
		if len(a) != 3 {
			t.Fatalf("dimension = %d", len(a))
		}
		// z carries gravity; x/y near zero for a stable sensor.
		if math.Abs(a[2]-1) > 0.05 || math.Abs(a[0]) > 0.05 {
			t.Fatalf("offsets %v", a)
		}
	}
}

func TestDetectOutliersStableSensor(t *testing.T) {
	// Fig. 8(a): all measurements valid.
	pump := physics.NewPump(physics.PumpConfig{ID: 1, Seed: 3})
	sensor, _ := mems.New(mems.Config{Seed: 4})
	recs := capture(t, pump, sensor, daysRange(60, 1))
	valid, invalid, err := DetectOutliers(recs, OutlierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(invalid) != 0 {
		t.Fatalf("stable sensor flagged %d invalid", len(invalid))
	}
	if len(valid) != 60 {
		t.Fatalf("valid = %d", len(valid))
	}
}

func TestDetectOutliersUnstableSensor(t *testing.T) {
	// Fig. 8(b): a sensor with offset step faults — measurements after
	// the jump land in a separate cluster and are flagged.
	pump := physics.NewPump(physics.PumpConfig{ID: 2, Seed: 5})
	sensor, _ := mems.New(mems.Config{Seed: 6, StepFaults: 2, StepScaleG: 1.5})
	days := daysRange(80, 1)
	recs := capture(t, pump, sensor, days)
	// Find when the first step hits so the test knows the ground truth.
	stepDay := -1.0
	for _, d := range days {
		if math.Abs(sensor.OffsetAt(0, d))+math.Abs(sensor.OffsetAt(1, d))+math.Abs(sensor.OffsetAt(2, d)) > 0.5 {
			stepDay = d
			break
		}
	}
	if stepDay < 0 {
		t.Skip("no step landed inside the window for this seed")
	}
	valid, invalid, err := DetectOutliers(recs, OutlierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(invalid) == 0 {
		t.Fatal("no outliers flagged despite offset steps")
	}
	// The dominant cluster must be the pre-step regime when the step
	// lands late, or post-step otherwise — either way valid+invalid
	// partition the records.
	if len(valid)+len(invalid) != len(recs) {
		t.Fatalf("partition broken: %d + %d != %d", len(valid), len(invalid), len(recs))
	}
}

func TestDetectOutliersEmpty(t *testing.T) {
	if _, _, err := DetectOutliers(nil, OutlierConfig{}); !errors.Is(err, ErrNoMeasurements) {
		t.Fatalf("err = %v", err)
	}
}

func TestSmoothSeriesReducesNoise(t *testing.T) {
	days := daysRange(200, 0.1)
	values := make([]float64, len(days))
	for i, d := range days {
		values[i] = 0.01*d + 0.5*math.Sin(float64(i)*2.1)
	}
	smoothed := SmoothSeries(days, values, 1.0)
	if len(smoothed) != len(values) {
		t.Fatal("length changed")
	}
	// Residual roughness drops.
	var rawVar, smoVar float64
	for i := 1; i < len(values); i++ {
		rawVar += sq(values[i] - values[i-1])
		smoVar += sq(smoothed[i] - smoothed[i-1])
	}
	if smoVar >= rawVar/4 {
		t.Fatalf("smoothing too weak: %.4f vs %.4f", smoVar, rawVar)
	}
}

func TestSmoothSeriesPreservesTrend(t *testing.T) {
	days := daysRange(100, 1)
	values := make([]float64, len(days))
	for i, d := range days {
		values[i] = 2 * d
	}
	smoothed := SmoothSeries(days, values, 1.0)
	for i := range values {
		if math.Abs(smoothed[i]-values[i]) > 2.1 {
			t.Fatalf("trend destroyed at %d: %g vs %g", i, smoothed[i], values[i])
		}
	}
}

func TestSmoothSeriesEdgeCases(t *testing.T) {
	if got := SmoothSeries(nil, nil, 1); len(got) != 0 {
		t.Fatal("empty input should stay empty")
	}
	got := SmoothSeries([]float64{1}, []float64{5}, 0) // window defaults
	if got[0] != 5 {
		t.Fatalf("single sample smoothed to %g", got[0])
	}
	defer func() {
		if recover() == nil {
			t.Fatal("length mismatch must panic")
		}
	}()
	SmoothSeries([]float64{1, 2}, []float64{1}, 1)
}

func sq(x float64) float64 { return x * x }

func TestDetectOutliersLargeSeriesSubsampled(t *testing.T) {
	// Past maxClusterPoints the detector clusters a subsample and
	// assigns the rest to the nearest mode; the verdicts must still
	// partition the series and catch a late offset regime.
	pump := physics.NewPump(physics.PumpConfig{ID: 9, Seed: 77})
	good, _ := mems.New(mems.Config{Seed: 78})
	bad, _ := mems.New(mems.Config{Seed: 79, StepFaults: 1.2, StepScaleG: 1.5})
	var recs []*store.Record
	makeRec := func(s *mems.Sensor, day float64) *store.Record {
		m := s.Measure(pump, day, 64)
		rec := &store.Record{PumpID: 9, ServiceDays: day, SampleRateHz: m.SampleRateHz, ScaleG: m.ScaleG}
		for ax := 0; ax < 3; ax++ {
			rec.Raw[ax] = m.Raw[ax]
		}
		return rec
	}
	// 2000 clean measurements, then 400 with a stepped sensor offset.
	for i := 0; i < 2000; i++ {
		recs = append(recs, makeRec(good, float64(i)*0.1))
	}
	stepDay := -1.0
	for d := 0.0; d < 400; d++ {
		if math.Abs(bad.OffsetAt(0, d)) > 0.5 {
			stepDay = d
			break
		}
	}
	if stepDay < 0 {
		t.Skip("no step for this seed")
	}
	for i := 0; i < 400; i++ {
		recs = append(recs, makeRec(bad, stepDay+1+float64(i)*0.1))
	}
	valid, invalid, err := DetectOutliers(recs, OutlierConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(valid)+len(invalid) != len(recs) {
		t.Fatalf("partition broken: %d + %d != %d", len(valid), len(invalid), len(recs))
	}
	if len(invalid) < 300 {
		t.Fatalf("only %d of 400 offset measurements flagged", len(invalid))
	}
	for _, i := range invalid {
		if i < 1900 {
			t.Fatalf("clean measurement %d flagged", i)
		}
	}
}

// TestDetectOutliersIndicesAscending pins what Engine.CleanTrend and
// batchTrend rely on without sorting: valid and invalid come back in
// ascending order, on the plain path and past maxClusterPoints.
func TestDetectOutliersIndicesAscending(t *testing.T) {
	for _, n := range []int{300, 2*maxClusterPoints + 200} {
		points := make([][]float64, n)
		for i := range points {
			wobble := 0.001 * float64(i%7)
			points[i] = []float64{wobble, -wobble, 1 + wobble}
			if i%11 == 3 { // a stepped offset, interleaved with the clean regime
				points[i][0] += 1.5
			}
		}
		valid, invalid, err := DetectOutliersPoints(points, OutlierConfig{})
		if err != nil {
			t.Fatal(err)
		}
		if len(valid) == 0 || len(invalid) == 0 || len(valid)+len(invalid) != n {
			t.Fatalf("n=%d: %d valid, %d invalid", n, len(valid), len(invalid))
		}
		if !slices.IsSorted(valid) || !slices.IsSorted(invalid) {
			t.Fatalf("n=%d: indices not ascending", n)
		}
	}
}
