package feature_test

import (
	"math"
	"reflect"
	"testing"

	"vibepm/internal/feature"
	"vibepm/internal/mems"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// captureFault synthesizes one quantized measurement from a pump with
// an injected fault and wraps it as a stored record — the same path the
// golden classification harness uses.
func captureFault(t testing.TB, seed int64, wear float64, fault physics.FaultConfig, k int) (*store.Record, *physics.Pump) {
	t.Helper()
	const life = 600.0
	base := physics.NewPump(physics.PumpConfig{ID: int(seed), Seed: seed, LifeDays: life})
	src := mems.Source(base)
	if fault.Class != physics.FaultNone {
		src = physics.NewFaultyPump(base, fault)
	}
	sensor, err := mems.New(mems.Config{Seed: seed*7 + 1, SampleRateHz: 4000})
	if err != nil {
		t.Fatal(err)
	}
	day := wear * life
	m := sensor.Measure(src, day, k)
	return &store.Record{
		PumpID:       int(seed),
		ServiceDays:  day,
		SampleRateHz: m.SampleRateHz,
		ScaleG:       m.ScaleG,
		Raw:          m.Raw,
	}, base
}

// TestFaultDetectorCalibration is the threshold calibration gate: with
// default options, healthy pumps across the monitored wear range must
// stay strictly below every threshold, and every fault class at
// severity 1.0 must be classified exactly. Run with -v to see the score
// distributions the default thresholds were chosen from.
func TestFaultDetectorCalibration(t *testing.T) {
	seeds := []int64{11, 12, 13}
	wears := []float64{0.05, 0.30, 0.50}

	score := func(r feature.FaultReport, name string) float64 {
		for _, e := range r.Evidence {
			if e.Name == name {
				return e.Value
			}
		}
		return math.NaN()
	}

	// Healthy sweep: zero false positives.
	for _, seed := range seeds {
		for _, wear := range wears {
			rec, pump := captureFault(t, seed, wear, physics.FaultConfig{}, 1024)
			r := feature.DetectRecord(rec, feature.MachineSpec{RotorHz: pump.RotorHz()})
			t.Logf("healthy seed=%d wear=%.2f: class=%v 1x=%.2f 2x=%.2f half=%.2f env=[%.2f %.2f %.2f]",
				seed, wear, r.Class, score(r, "1x-excess"), score(r, "2x-excess"), score(r, "half-order-snr"),
				score(r, "env-BPFO"), score(r, "env-BPFI"), score(r, "env-BSF"))
			if r.Class != physics.FaultNone {
				t.Errorf("healthy seed=%d wear=%.2f misclassified as %v (conf %.2f)", seed, wear, r.Class, r.Confidence)
			}
		}
	}

	// Fault sweep: severity 1.0 must classify exactly; log the rest.
	faults := []struct {
		name string
		cfg  physics.FaultConfig
	}{
		{"bearing-BPFO", physics.FaultConfig{Class: physics.FaultBearing, Defect: physics.DefectOuterRace}},
		{"bearing-BPFI", physics.FaultConfig{Class: physics.FaultBearing, Defect: physics.DefectInnerRace}},
		{"bearing-BSF", physics.FaultConfig{Class: physics.FaultBearing, Defect: physics.DefectBall}},
		{"imbalance", physics.FaultConfig{Class: physics.FaultImbalance}},
		{"misalign-angular", physics.FaultConfig{Class: physics.FaultMisalignment, Misalign: physics.MisalignAngular}},
		{"misalign-parallel", physics.FaultConfig{Class: physics.FaultMisalignment, Misalign: physics.MisalignParallel}},
		{"looseness", physics.FaultConfig{Class: physics.FaultLooseness}},
	}
	for _, f := range faults {
		for _, sev := range []float64{0.25, 0.5, 1.0} {
			cfg := f.cfg
			cfg.Severity = sev
			for _, seed := range seeds {
				rec, pump := captureFault(t, seed, 0.15, cfg, 1024)
				r := feature.DetectRecord(rec, feature.MachineSpec{RotorHz: pump.RotorHz()})
				t.Logf("%s sev=%.2f seed=%d: class=%v conf=%.2f defect=%s 1x=%.2f 2x=%.2f half=%.2f env=[%.2f %.2f %.2f]",
					f.name, sev, seed, r.Class, r.Confidence, r.Defect,
					score(r, "1x-excess"), score(r, "2x-excess"), score(r, "half-order-snr"),
					score(r, "env-BPFO"), score(r, "env-BPFI"), score(r, "env-BSF"))
				if sev == 1.0 && r.Class != cfg.Class {
					t.Errorf("%s sev=1.0 seed=%d: classified %v, want %v", f.name, seed, r.Class, cfg.Class)
				}
			}
		}
	}
}

// TestDetectRecordDeterminism pins that classification is a pure
// function of the record.
func TestDetectRecordDeterminism(t *testing.T) {
	rec, pump := captureFault(t, 21, 0.2, physics.FaultConfig{Class: physics.FaultBearing, Severity: 0.8}, 1024)
	spec := feature.MachineSpec{RotorHz: pump.RotorHz()}
	a := feature.DetectRecord(rec, spec)
	b := feature.DetectRecord(rec, spec)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("repeated detection diverged:\n%+v\n%+v", a, b)
	}
}

// TestDetectRecordInsufficientData pins the degenerate-input contract:
// short or rate-less records classify as healthy with an explicit
// insufficient-data marker, never panic.
func TestDetectRecordInsufficientData(t *testing.T) {
	for _, rec := range []*store.Record{
		{},
		{SampleRateHz: 4000},
		{SampleRateHz: 4000, Raw: [3][]int16{make([]int16, 16), make([]int16, 16), make([]int16, 16)}},
		{ScaleG: 1, Raw: [3][]int16{make([]int16, 1024), make([]int16, 1024), make([]int16, 1024)}},
	} {
		r := feature.DetectRecord(rec, feature.MachineSpec{RotorHz: 119})
		if r.Class != physics.FaultNone {
			t.Errorf("degenerate record classified as %v", r.Class)
		}
		if len(r.Evidence) != 1 || r.Evidence[0].Name != "insufficient-data" {
			t.Errorf("degenerate record evidence = %+v", r.Evidence)
		}
	}
}

// TestEstimateRotorHz pins speed recovery from the spectrum alone on
// the awkward spectra: healthy (1× dominant), misaligned (2× dominant),
// and loose (half-order lines present).
func TestEstimateRotorHz(t *testing.T) {
	cases := []struct {
		name string
		cfg  physics.FaultConfig
	}{
		{"healthy", physics.FaultConfig{}},
		{"imbalance", physics.FaultConfig{Class: physics.FaultImbalance, Severity: 1}},
		{"misalign", physics.FaultConfig{Class: physics.FaultMisalignment, Severity: 1}},
		{"looseness", physics.FaultConfig{Class: physics.FaultLooseness, Severity: 1}},
	}
	for _, c := range cases {
		rec, pump := captureFault(t, 31, 0.2, c.cfg, 2048)
		r := feature.DetectRecord(rec, feature.MachineSpec{})
		got := r.RotorHz
		want := pump.RotorHz()
		if math.Abs(got-want) > 0.02*want {
			t.Errorf("%s: estimated rotor %.2f Hz, want %.2f ± 2%%", c.name, got, want)
		}
	}
}

// TestFaultDetectorWithSpec pins the copy-on-write contract: WithSpec
// never mutates the receiver, so a shared detector pointer is safe.
func TestFaultDetectorWithSpec(t *testing.T) {
	d := feature.NewFaultDetector(feature.MachineSpec{RotorHz: 100})
	d2 := d.WithSpec(7, feature.MachineSpec{RotorHz: 50})
	if got := d.SpecFor(7).RotorHz; got != 100 {
		t.Errorf("receiver mutated: SpecFor(7) = %.0f, want default 100", got)
	}
	if got := d2.SpecFor(7).RotorHz; got != 50 {
		t.Errorf("copy missing override: SpecFor(7) = %.0f, want 50", got)
	}
	if got := d2.SpecFor(8).RotorHz; got != 100 {
		t.Errorf("copy default broken: SpecFor(8) = %.0f, want 100", got)
	}
}
