// Package mems models the vibration sensor hardware of the paper's §II:
// a 3-axis accelerometer sampling at a software-selected rate between
// 150 Hz and 22 kHz, quantizing each sample to a signed 16-bit reading,
// and suffering the imperfections that drive the analysis design —
// sensor noise (Table I's noise figures), gravity bias, long-term
// zero-offset drift, and abrupt offset steps (the invalid-measurement
// regime of Fig. 8(b)).
package mems

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"sync"
)

// Spec captures the datasheet comparison of the paper's Table I.
// NoiseRMSMicroG is interpreted as the total equivalent input noise in
// µg over the sensor's measurement band — the simulator adds white noise
// with that RMS to every sample.
type Spec struct {
	Name           string
	PriceUSD       float64
	PowerW         float64
	SizeInches     [3]float64
	NoiseRMSMicroG float64
	ResonanceHz    float64
	RangeG         float64
}

// The two sensor generations of Table I.
var (
	// PiezoSpec is the conventional piezoelectric accelerometer.
	PiezoSpec = Spec{
		Name:           "Piezo",
		PriceUSD:       300,
		PowerW:         0.027,
		SizeInches:     [3]float64{1.97, 0.98, 1},
		NoiseRMSMicroG: 700,
		ResonanceHz:    20_000,
		RangeG:         10,
	}
	// MEMSSpec is the new-generation MEMS accelerometer.
	MEMSSpec = Spec{
		Name:           "MEMS",
		PriceUSD:       10,
		PowerW:         0.003,
		SizeInches:     [3]float64{0.2, 0.2, 0.05},
		NoiseRMSMicroG: 4000,
		ResonanceHz:    22_000,
		RangeG:         100,
	}
)

// Specs returns the Table I comparison rows.
func Specs() []Spec { return []Spec{PiezoSpec, MEMSSpec} }

// Sampling-rate limits of the mote hardware (§II).
const (
	MinSampleRateHz = 150
	MaxSampleRateHz = 22_000
	// SamplesPerMeasurement is K: each measurement captures 1024
	// samples per axis.
	SamplesPerMeasurement = 1024
	// BytesPerSample is the 2-byte reading per axis per sample.
	BytesPerSample = 2
	// Axes is the number of measured directions.
	Axes = 3
)

// MeasurementBytes is the wire size of one complete measurement:
// 1024 samples × 3 axes × 2 bytes = 6 KiB.
const MeasurementBytes = SamplesPerMeasurement * Axes * BytesPerSample

// Source produces ground-truth physical acceleration. *physics.Pump
// and *physics.FaultyPump satisfy it.
type Source interface {
	// AccelerationInto overwrites x, y and z (one per axis, all of the
	// same length k) with the k samples (in g) at sampling rate fs of
	// the measurement taken at the given service time.
	AccelerationInto(x, y, z []float64, serviceDays, fs float64)
}

// Config describes one sensor instance.
type Config struct {
	// Spec selects the hardware generation; zero value uses MEMSSpec.
	Spec Spec
	// SampleRateHz is the configured sampling rate; it is clamped to
	// [MinSampleRateHz, MaxSampleRateHz]. Defaults to 4 kHz, the rate
	// used in the paper's evaluation.
	SampleRateHz float64
	// Seed makes the sensor's noise and fault schedule reproducible.
	Seed int64
	// DriftPerDayG is the long-term zero-offset drift rate in g/day
	// applied to every axis (with per-axis sign/scale variation). Zero
	// means a stable sensor.
	DriftPerDayG float64
	// StepFaults enables abrupt offset step changes; when > 0 it is the
	// expected number of steps per 100 days.
	StepFaults float64
	// StepScaleG is the typical magnitude of an offset step (default
	// 0.5 g).
	StepScaleG float64
}

// Sensor converts physical acceleration into quantized raw readings.
// Its fault schedule is precomputed from the seed, so measurements are
// deterministic functions of (config, service time) and safe for
// concurrent use.
type Sensor struct {
	cfg       Config
	scaleG    float64 // g per LSB
	driftAxis [3]float64
	steps     [3][]step
}

type step struct {
	day  float64
	size float64
}

// ErrBadRate is returned when the requested sampling rate is negative
// or NaN.
var ErrBadRate = errors.New("mems: sampling rate must be positive")

// New builds a sensor from cfg.
func New(cfg Config) (*Sensor, error) {
	if cfg.Spec.Name == "" {
		cfg.Spec = MEMSSpec
	}
	if cfg.SampleRateHz == 0 {
		cfg.SampleRateHz = 4000
	}
	if cfg.SampleRateHz < 0 || math.IsNaN(cfg.SampleRateHz) {
		return nil, ErrBadRate
	}
	if cfg.SampleRateHz < MinSampleRateHz {
		cfg.SampleRateHz = MinSampleRateHz
	}
	if cfg.SampleRateHz > MaxSampleRateHz {
		cfg.SampleRateHz = MaxSampleRateHz
	}
	if cfg.StepScaleG <= 0 {
		cfg.StepScaleG = 0.5
	}
	s := &Sensor{
		cfg:    cfg,
		scaleG: cfg.Spec.RangeG / 32768,
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0xd21f7))
	for axis := 0; axis < 3; axis++ {
		s.driftAxis[axis] = cfg.DriftPerDayG * (0.5 + rng.Float64()) * sign(rng)
		if cfg.StepFaults > 0 {
			// Draw step times over a 10-year horizon as a Poisson
			// process with the configured rate per 100 days.
			day := 0.0
			rate := cfg.StepFaults / 100 // steps per day
			for {
				day += rng.ExpFloat64() / rate
				if day > 3650 {
					break
				}
				s.steps[axis] = append(s.steps[axis], step{
					day:  day,
					size: cfg.StepScaleG * (0.5 + rng.Float64()) * sign(rng),
				})
			}
			sort.Slice(s.steps[axis], func(i, j int) bool {
				return s.steps[axis][i].day < s.steps[axis][j].day
			})
		}
	}
	return s, nil
}

func sign(rng *rand.Rand) float64 {
	if rng.Intn(2) == 0 {
		return -1
	}
	return 1
}

// SampleRateHz returns the effective (clamped) sampling rate.
func (s *Sensor) SampleRateHz() float64 { return s.cfg.SampleRateHz }

// Spec returns the hardware spec in use.
func (s *Sensor) Spec() Spec { return s.cfg.Spec }

// OffsetAt returns the zero-offset error (g) of the given axis at the
// given service time: accumulated drift plus any step faults so far.
func (s *Sensor) OffsetAt(axis int, serviceDays float64) float64 {
	off := s.driftAxis[axis] * serviceDays
	for _, st := range s.steps[axis] {
		if st.day > serviceDays {
			break
		}
		off += st.size
	}
	return off
}

// Measurement is one quantized capture: K samples per axis plus the
// metadata needed to convert back to physical units.
type Measurement struct {
	// ServiceDays is the sensor service time of the capture.
	ServiceDays float64
	// SampleRateHz is the rate the capture was taken at.
	SampleRateHz float64
	// Raw holds the quantized readings per axis (x, y, z).
	Raw [Axes][]int16
	// ScaleG converts raw counts to g.
	ScaleG float64
	// Clipped counts samples that saturated the sensor range.
	Clipped int
}

// AxisG converts one axis of raw readings to acceleration in g.
func (m *Measurement) AxisG(axis int) []float64 {
	out := make([]float64, len(m.Raw[axis]))
	for i, v := range m.Raw[axis] {
		out[i] = float64(v) * m.ScaleG
	}
	return out
}

// Bytes returns the wire size of the measurement payload.
func (m *Measurement) Bytes() int {
	n := 0
	for axis := 0; axis < Axes; axis++ {
		n += len(m.Raw[axis]) * BytesPerSample
	}
	return n
}

// measureScratch is what one Measure call needs beyond its result: the
// physical acceleration of each axis and a reseedable noise RNG.
// Pooled so a capture allocates only the Measurement and its raw
// readings.
type measureScratch struct {
	axes [Axes][]float64
	rng  *rand.Rand
}

var measurePool = sync.Pool{
	New: func() any {
		return &measureScratch{rng: rand.New(rand.NewSource(1))}
	},
}

// Measure captures k samples per axis from src at the given service
// time, applying sensor noise, offset error, clipping, and 16-bit
// quantization.
func (s *Sensor) Measure(src Source, serviceDays float64, k int) *Measurement {
	if k <= 0 {
		k = SamplesPerMeasurement
	}
	fs := s.cfg.SampleRateHz
	sc := measurePool.Get().(*measureScratch)
	defer measurePool.Put(sc)
	for axis := range sc.axes {
		if cap(sc.axes[axis]) < k {
			sc.axes[axis] = make([]float64, k)
		}
		sc.axes[axis] = sc.axes[axis][:k]
	}
	src.AccelerationInto(sc.axes[0], sc.axes[1], sc.axes[2], serviceDays, fs)
	m := &Measurement{
		ServiceDays:  serviceDays,
		SampleRateHz: fs,
		ScaleG:       s.scaleG,
	}
	noise := s.cfg.Spec.NoiseRMSMicroG * 1e-6
	// Reseeding in place gives the stream a fresh
	// rand.New(rand.NewSource(seed)) would.
	rng := sc.rng
	rng.Seed(s.cfg.Seed*31 + int64(math.Float64bits(serviceDays)))
	limit := s.cfg.Spec.RangeG
	for axis := 0; axis < Axes; axis++ {
		off := s.OffsetAt(axis, serviceDays)
		raw := make([]int16, k)
		for i, v := range sc.axes[axis] {
			g := v + off + noise*rng.NormFloat64()
			if g > limit {
				g = limit
				m.Clipped++
			} else if g < -limit {
				g = -limit
				m.Clipped++
			}
			counts := math.Round(g / s.scaleG)
			if counts > 32767 {
				counts = 32767
			} else if counts < -32768 {
				counts = -32768
			}
			raw[i] = int16(counts)
		}
		m.Raw[axis] = raw
	}
	return m
}
