package mems

import (
	"errors"
	"math"
	"testing"

	"vibepm/internal/dsp"
	"vibepm/internal/physics"
)

func newTestSensor(t *testing.T, cfg Config) *Sensor {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSpecsTable(t *testing.T) {
	specs := Specs()
	if len(specs) != 2 {
		t.Fatalf("specs = %d rows", len(specs))
	}
	piezo, mems := specs[0], specs[1]
	if piezo.PriceUSD <= mems.PriceUSD {
		t.Fatal("piezo must cost more than MEMS")
	}
	if piezo.NoiseRMSMicroG >= mems.NoiseRMSMicroG {
		t.Fatal("MEMS must be noisier than piezo")
	}
	if mems.RangeG <= piezo.RangeG {
		t.Fatal("MEMS must have the wider range")
	}
}

func TestMeasurementBytesConstant(t *testing.T) {
	if MeasurementBytes != 6144 {
		t.Fatalf("MeasurementBytes = %d, want 6144 (the paper's 6 KByte)", MeasurementBytes)
	}
}

func TestNewClampsRate(t *testing.T) {
	s := newTestSensor(t, Config{SampleRateHz: 10})
	if s.SampleRateHz() != MinSampleRateHz {
		t.Fatalf("rate %.0f, want clamp to %d", s.SampleRateHz(), MinSampleRateHz)
	}
	s = newTestSensor(t, Config{SampleRateHz: 1e6})
	if s.SampleRateHz() != MaxSampleRateHz {
		t.Fatalf("rate %.0f, want clamp to %d", s.SampleRateHz(), MaxSampleRateHz)
	}
	s = newTestSensor(t, Config{})
	if s.SampleRateHz() != 4000 {
		t.Fatalf("default rate %.0f, want 4000", s.SampleRateHz())
	}
	if s.Spec().Name != "MEMS" {
		t.Fatalf("default spec %q", s.Spec().Name)
	}
	if _, err := New(Config{SampleRateHz: -5}); err == nil {
		t.Fatal("negative rate must error")
	}
}

func TestMeasureRoundtripAmplitude(t *testing.T) {
	pump := physics.NewPump(physics.PumpConfig{ID: 0, Seed: 1})
	s := newTestSensor(t, Config{Seed: 2})
	m := s.Measure(pump, 5, 1024)
	if len(m.Raw[0]) != 1024 || len(m.Raw[2]) != 1024 {
		t.Fatalf("raw lengths %d %d", len(m.Raw[0]), len(m.Raw[2]))
	}
	if m.Bytes() != MeasurementBytes {
		t.Fatalf("payload %d bytes", m.Bytes())
	}
	// The z axis must carry the gravity bias through quantization.
	z := m.AxisG(2)
	if math.Abs(dsp.Mean(z)-1) > 0.05 {
		t.Fatalf("z mean %.3f g", dsp.Mean(z))
	}
	// RMS of the demeaned x axis should be in a plausible vibration
	// range (sensor noise + mechanical signal).
	x := m.AxisG(0)
	r := dsp.RMS(dsp.Demean(x))
	if r <= 0 || r > 1 {
		t.Fatalf("x vibration RMS %.4f g", r)
	}
}

func TestMeasureDeterministic(t *testing.T) {
	pump := physics.NewPump(physics.PumpConfig{ID: 1, Seed: 3})
	s := newTestSensor(t, Config{Seed: 4})
	a := s.Measure(pump, 7, 256)
	b := s.Measure(pump, 7, 256)
	for axis := 0; axis < Axes; axis++ {
		for i := range a.Raw[axis] {
			if a.Raw[axis][i] != b.Raw[axis][i] {
				t.Fatal("measurement not deterministic")
			}
		}
	}
}

func TestMeasureDefaultK(t *testing.T) {
	pump := physics.NewPump(physics.PumpConfig{ID: 2, Seed: 5})
	s := newTestSensor(t, Config{Seed: 6})
	m := s.Measure(pump, 1, 0)
	if len(m.Raw[0]) != SamplesPerMeasurement {
		t.Fatalf("default k = %d", len(m.Raw[0]))
	}
}

func TestNoisierSpecRaisesFloor(t *testing.T) {
	pump := physics.NewPump(physics.PumpConfig{ID: 3, Seed: 7})
	quiet := newTestSensor(t, Config{Spec: PiezoSpec, Seed: 8})
	noisy := newTestSensor(t, Config{Spec: MEMSSpec, Seed: 8})
	// Average over several captures.
	var rq, rn float64
	for i := 0; i < 5; i++ {
		day := float64(i)
		mq := quiet.Measure(pump, day, 1024)
		mn := noisy.Measure(pump, day, 1024)
		rq += dsp.RMS(dsp.Demean(mq.AxisG(0)))
		rn += dsp.RMS(dsp.Demean(mn.AxisG(0)))
	}
	if rn <= rq {
		t.Fatalf("MEMS RMS %.5f should exceed piezo %.5f", rn/5, rq/5)
	}
}

func TestOffsetDriftAccumulates(t *testing.T) {
	s := newTestSensor(t, Config{Seed: 9, DriftPerDayG: 0.01})
	if got := s.OffsetAt(0, 0); got != 0 {
		t.Fatalf("offset at day 0 = %g", got)
	}
	o10 := s.OffsetAt(0, 10)
	o100 := s.OffsetAt(0, 100)
	if math.Abs(o100) <= math.Abs(o10) {
		t.Fatalf("drift not accumulating: %g vs %g", o10, o100)
	}
	if !almostEqual(o100, 10*o10, 1e-9) {
		t.Fatalf("drift not linear: %g vs 10×%g", o100, o10)
	}
}

func TestStepFaultsAppear(t *testing.T) {
	s := newTestSensor(t, Config{Seed: 10, StepFaults: 5}) // ~5 per 100 days
	// Over 400 days at least one axis must see a step.
	found := false
	for axis := 0; axis < Axes; axis++ {
		base := s.OffsetAt(axis, 0)
		for day := 1.0; day <= 400; day++ {
			if math.Abs(s.OffsetAt(axis, day)-base) > 0.1 {
				found = true
				break
			}
		}
	}
	if !found {
		t.Fatal("no offset steps over 400 days with StepFaults=5")
	}
}

func TestStableSensorHasNoOffset(t *testing.T) {
	s := newTestSensor(t, Config{Seed: 11})
	for axis := 0; axis < Axes; axis++ {
		if got := s.OffsetAt(axis, 365); got != 0 {
			t.Fatalf("stable sensor offset %g", got)
		}
	}
}

func TestClippingCounts(t *testing.T) {
	// A piezo sensor (±10 g) pointed at a source with huge amplitude
	// must clip; use a synthetic source.
	src := constSource{value: 50}
	s := newTestSensor(t, Config{Spec: PiezoSpec, Seed: 12})
	m := s.Measure(src, 0, 100)
	if m.Clipped == 0 {
		t.Fatal("expected clipping at 50 g on a ±10 g sensor")
	}
	for _, v := range m.AxisG(0) {
		if v > PiezoSpec.RangeG+1e-9 {
			t.Fatalf("sample %g exceeds range", v)
		}
	}
}

// TestNewRejectsBadRate: a negative or NaN rate is refused with
// ErrBadRate; zero takes the default and an infinite one clamps. NaN
// fails every comparison, so only an explicit check refuses it.
func TestNewRejectsBadRate(t *testing.T) {
	for _, tc := range []struct {
		rate float64
		want float64 // effective rate; 0 = ErrBadRate
	}{
		{-5, 0},
		{math.Inf(-1), 0},
		{math.NaN(), 0},
		{0, 4000},
		{math.Inf(1), MaxSampleRateHz},
	} {
		s, err := New(Config{SampleRateHz: tc.rate})
		if tc.want == 0 {
			if !errors.Is(err, ErrBadRate) {
				t.Errorf("rate %v: err %v, want ErrBadRate", tc.rate, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("rate %v: %v", tc.rate, err)
		} else if s.SampleRateHz() != tc.want {
			t.Errorf("rate %v: effective %v, want %v", tc.rate, s.SampleRateHz(), tc.want)
		}
	}
}

type constSource struct{ value float64 }

func (c constSource) AccelerationInto(x, y, z []float64, _, _ float64) {
	for i := range x {
		x[i], y[i], z[i] = c.value, c.value, c.value
	}
}

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}
