package physics

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// LifetimeModel identifies which of the two latent ageing populations a
// pump belongs to (the paper's Model I and Model II found by recursive
// RANSAC in Fig. 15). Model I pumps age slowly (long-term operation,
// ≈1.5 years to wear-out); Model II pumps age roughly three times
// faster (≈6 months), driven by the manufacturing process they serve.
type LifetimeModel int

const (
	// ModelI is the long-term ageing population (> 1 yr).
	ModelI LifetimeModel = iota + 1
	// ModelII is the short-term ageing population (< 6 mo).
	ModelII
)

// String names the model as in the paper's Table IV.
func (m LifetimeModel) String() string {
	switch m {
	case ModelI:
		return "Model I"
	case ModelII:
		return "Model II"
	default:
		return fmt.Sprintf("Model(%d)", int(m))
	}
}

// DefaultLifeDays returns the characteristic wear-out time (days of
// service until degradation reaches 1.0) for the model. Zone D is
// entered at DegradationD of that span.
func (m LifetimeModel) DefaultLifeDays() float64 {
	switch m {
	case ModelII:
		return 190
	default:
		return 620
	}
}

// PumpConfig describes one simulated pump.
type PumpConfig struct {
	// ID identifies the pump (0-based in the experiments).
	ID int
	// Model selects the latent ageing population. Defaults to ModelI.
	Model LifetimeModel
	// LifeDays overrides the characteristic wear-out time; 0 uses the
	// model default.
	LifeDays float64
	// InitialAgeDays is the pump's age when its vibration sensor is
	// attached — the paper's "variance on initial status": monitoring
	// starts mid-life, not at installation.
	InitialAgeDays float64
	// RotorHz is the rotor fundamental frequency; 0 defaults to ≈119 Hz
	// with a small per-pump offset.
	RotorHz float64
	// Seed makes the pump's stochastic behaviour reproducible.
	Seed int64
}

// Pump is a simulated vacuum pump. All query methods take the sensor
// service time in days (time since the sensor was attached); the pump's
// own age is InitialAgeDays + service time, adjusted for replacements.
// Pump is not safe for concurrent mutation (Replace) but concurrent
// reads of distinct service times are safe because all randomness is
// derived functionally from (seed, time).
type Pump struct {
	cfg      PumpConfig
	lifeDays float64
	rotorHz  float64
	// resets holds service times (days) at which the pump was replaced
	// with a fresh unit, sorted ascending.
	resets []float64
}

// NewPump builds a pump from cfg, filling defaults.
func NewPump(cfg PumpConfig) *Pump {
	if cfg.Model == 0 {
		cfg.Model = ModelI
	}
	life := cfg.LifeDays
	if life <= 0 {
		life = cfg.Model.DefaultLifeDays()
		// ±8% per-pump spread so the fleet is not perfectly uniform.
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5ee1))
		life *= 1 + 0.08*(2*rng.Float64()-1)
	}
	rotor := cfg.RotorHz
	if rotor <= 0 {
		// The paper's pumps are "an identical model ... from the same
		// pump manufacturer": rotor speeds agree to a fraction of a Hz.
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x0707))
		rotor = 119.0 + 0.5*(2*rng.Float64()-1)
	}
	return &Pump{cfg: cfg, lifeDays: life, rotorHz: rotor}
}

// ID returns the pump id.
func (p *Pump) ID() int { return p.cfg.ID }

// Model returns the pump's latent lifetime model.
func (p *Pump) Model() LifetimeModel { return p.cfg.Model }

// LifeDays returns the characteristic wear-out time in days.
func (p *Pump) LifeDays() float64 { return p.lifeDays }

// RotorHz returns the rotor fundamental frequency.
func (p *Pump) RotorHz() float64 { return p.rotorHz }

// Replace records a pump replacement at the given sensor service time:
// from that moment the physical unit is new (degradation restarts at
// zero, with no initial age). Replacements must be recorded in
// increasing time order.
func (p *Pump) Replace(atServiceDays float64) {
	p.resets = append(p.resets, atServiceDays)
	sort.Float64s(p.resets)
}

// unitAge returns the age in days of the physical unit installed at the
// given service time.
func (p *Pump) unitAge(serviceDays float64) float64 {
	lastReset := -1.0
	for _, r := range p.resets {
		if r <= serviceDays {
			lastReset = r
		}
	}
	if lastReset < 0 {
		return p.cfg.InitialAgeDays + serviceDays
	}
	return serviceDays - lastReset
}

// UnitAgeDays returns the age in days of the physical unit installed at
// the given service time — initial age plus service time, reset by
// recorded replacements. In the real plant this comes from the factory
// database's install dates, so the analysis layer may use it.
func (p *Pump) UnitAgeDays(serviceDays float64) float64 {
	return p.unitAge(serviceDays)
}

// DegradationAt returns the latent wear level d at the given service
// time: 0 is factory-new, DegradationD (0.70) is the Zone D boundary,
// and 1.0 the characteristic wear-out. Growth is linear in unit age —
// the assumption underlying the paper's linear lifetime models — with a
// gentle super-linear tail beyond d = 1.
func (p *Pump) DegradationAt(serviceDays float64) float64 {
	age := p.unitAge(serviceDays)
	if age < 0 {
		age = 0
	}
	d := age / p.lifeDays
	if d > 1 {
		d = 1 + (d-1)*1.5
	}
	return d
}

// ZoneAt returns the ground-truth zone at the given service time.
func (p *Pump) ZoneAt(serviceDays float64) Zone {
	return ZoneForDegradation(p.DegradationAt(serviceDays))
}

// RemainingDays returns the ground-truth remaining useful lifetime in
// days: the service time remaining until degradation crosses the Zone D
// boundary. It is negative when the pump is already in Zone D.
func (p *Pump) RemainingDays(serviceDays float64) float64 {
	d := p.DegradationAt(serviceDays)
	// Degradation is linear in age below d=1 at rate 1/lifeDays.
	return (DegradationD - d) * p.lifeDays
}

// measurementRNG derives a deterministic RNG for the measurement taken
// at the given service time, so that the same query always produces the
// same noisy measurement.
func (p *Pump) measurementRNG(serviceDays float64, salt int64) *rand.Rand {
	bits := int64(math.Float64bits(serviceDays))
	seed := p.cfg.Seed*0x9e3779b9 + bits ^ salt
	return rand.New(rand.NewSource(seed))
}

// VibrationSpec captures the ground-truth spectral content of one
// measurement: harmonic tones plus noise parameters. Exposed mainly for
// tests and documentation tooling.
type VibrationSpec struct {
	// Tones holds (frequency Hz, amplitude g) pairs per axis.
	Tones [3][]Tone
	// NoiseStd is the additive broadband noise level (g) per axis.
	NoiseStd [3]float64
	// Gain is the multiplicative fluctuation applied to the whole
	// measurement (the mechanism that makes Zone BC and D overlap under
	// naive Euclidean PSD distance).
	Gain float64
}

// Tone is a single sinusoidal component.
type Tone struct {
	Freq  float64 // Hz
	Amp   float64 // g
	Phase float64 // radians
}

// clampAmp caps a defect tone's relative amplitude: a real defect tone
// saturates once the defect is fully developed rather than growing
// without bound, and the cap keeps Algorithm 1's global peak normalizer
// close to the healthy fundamental so the smooth amplitude growth of
// the rotor harmonics stays visible in the distance.
func clampAmp(rel float64) float64 {
	if rel > 1.2 {
		return 1.2
	}
	return rel
}

// axisGains reflects the mounting geometry: the sensor sees radial
// vibration strongest on x, slightly weaker on y, weakest axially (z).
var axisGains = [3]float64{1.0, 0.85, 0.6}

// spec builds the ground-truth spectral recipe for a measurement at the
// given service time.
func (p *Pump) spec(serviceDays float64) VibrationSpec {
	var out VibrationSpec
	p.specInto(&out, serviceDays, p.measurementRNG(serviceDays, 0))
	return out
}

// Acceleration synthesizes one measurement: k samples per axis at
// sampling rate fs (Hz), returning true physical acceleration in g for
// the x, y, z axes. The z axis carries the 1 g gravity bias the
// analysis pipeline must normalize away. The result is deterministic in
// (pump seed, serviceDays, fs, k).
func (p *Pump) Acceleration(serviceDays, fs float64, k int) (ax, ay, az []float64) {
	ax = make([]float64, k)
	ay = make([]float64, k)
	az = make([]float64, k)
	p.AccelerationInto(ax, ay, az, serviceDays, fs)
	return ax, ay, az
}

// TemperatureAt returns the FICS temperature reading (°C) for the pump
// at the given service time. Temperature tracks the factory control
// loop — a setpoint with slow drift and control noise — and carries no
// information about pump health, which is why the paper's temperature
// baseline classifies at chance.
func (p *Pump) TemperatureAt(serviceDays float64) float64 {
	const setpoint = 21.0
	// Slow deterministic drift from HVAC cycling.
	drift := 0.8 * math.Sin(2*math.Pi*serviceDays/7.3)
	daily := 0.4 * math.Sin(2*math.Pi*serviceDays)
	rng := p.measurementRNG(serviceDays, 0x7e3b)
	return setpoint + drift + daily + 0.6*rng.NormFloat64()
}
