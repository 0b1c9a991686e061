package physics

import (
	"math"
	"math/rand"
)

// baseToneAmp is the healthy fundamental amplitude in g — the
// normalizer every injected fault amplitude is expressed against, so
// fault severity composes predictably with the wear model.
const baseToneAmp = 0.035

// MisalignKind selects the misalignment geometry.
type MisalignKind int

const (
	// MisalignAngular couples the shafts at an angle: 1× and 2× grow
	// radially and, characteristically, axially.
	MisalignAngular MisalignKind = iota
	// MisalignParallel offsets the shaft centerlines: a dominant radial
	// 2× with little axial involvement.
	MisalignParallel
)

// String names the misalignment kind.
func (k MisalignKind) String() string {
	if k == MisalignParallel {
		return "parallel"
	}
	return "angular"
}

// DefaultResonanceHz is the structural resonance a bearing defect's
// impacts excite. It is a property of the machine casing, deliberately
// off every rotor harmonic, and sits below the Nyquist frequency of
// the 4 kHz evaluation capture rate so the amplitude-modulated carrier
// survives sampling.
const DefaultResonanceHz = 1480

// FaultConfig parameterizes one injected fault. The zero value (class
// FaultNone or severity 0) injects nothing: the FaultyPump is then
// bit-identical to its base pump.
type FaultConfig struct {
	// Class selects the fault taxonomy entry to inject.
	Class FaultClass
	// Severity scales the fault development in [0, 1]: 0.25 is an
	// incipient defect, 1.0 fully developed.
	Severity float64
	// Bearing is the bearing geometry (class FaultBearing); the zero
	// value selects DefaultBearing.
	Bearing BearingGeometry
	// Defect locates the bearing defect (class FaultBearing); the zero
	// value is the outer race (BPFO).
	Defect BearingDefect
	// Misalign selects the misalignment geometry (class
	// FaultMisalignment); the zero value is angular.
	Misalign MisalignKind
	// ResonanceHz overrides the structural resonance carrying the
	// bearing impacts (0 = DefaultResonanceHz).
	ResonanceHz float64
}

// FaultyPump layers a parameterized fault on top of a base pump's
// synthesis: the base spectral recipe (rotor harmonics, wear-driven
// defect tones, noise, load-gain fluctuation) is built exactly as the
// healthy model builds it, the fault's tones are injected into the
// recipe, and the shared phase-recurrence renderer produces the
// samples. Like the base pump, every measurement is a deterministic
// function of (seed, service time): corpus generation over faulty
// pumps is byte-identical at any worker count.
//
// FaultyPump embeds its base, so identity queries (ID, RotorHz,
// DegradationAt, ...) pass through; only the synthesis entry points
// are overridden. It satisfies mems.Source.
type FaultyPump struct {
	*Pump
	fault FaultConfig
}

// NewFaultyPump wraps base with an injected fault. Severity is clamped
// to [0, 1].
func NewFaultyPump(base *Pump, fault FaultConfig) *FaultyPump {
	if fault.Severity < 0 {
		fault.Severity = 0
	} else if fault.Severity > 1 {
		fault.Severity = 1
	}
	if fault.ResonanceHz <= 0 {
		fault.ResonanceHz = DefaultResonanceHz
	}
	fault.Bearing = fault.Bearing.orDefault()
	return &FaultyPump{Pump: base, fault: fault}
}

// AccelerationInto synthesizes one faulty measurement into
// caller-provided buffers; see Pump.AccelerationInto for the contract.
// With a zero fault it produces output bit-identical to the base
// pump's.
func (f *FaultyPump) AccelerationInto(ax, ay, az []float64, serviceDays, fs float64) {
	sc := synthPool.Get().(*synthScratch)
	defer synthPool.Put(sc)
	f.Pump.specInto(&sc.spec, serviceDays, sc.rng)
	f.injectInto(&sc.spec, serviceDays, sc.rng)
	f.Pump.renderInto(ax, ay, az, &sc.spec, serviceDays, fs, sc.rng)
}

// Spec returns the ground-truth spectral recipe of one faulty
// measurement — the base recipe plus the injected fault tones. Exposed
// for tests and documentation tooling, like Pump's spec.
func (f *FaultyPump) Spec(serviceDays float64) VibrationSpec {
	var out VibrationSpec
	f.Pump.specInto(&out, serviceDays, f.Pump.measurementRNG(serviceDays, 0))
	f.injectInto(&out, serviceDays, f.Pump.measurementRNG(serviceDays, 0))
	return out
}

// injectInto modifies the base spectral recipe in place. The harmonic
// tones sit at fixed indices (specInto appends h = 1..12 first), so
// 1×/2× faults scale the existing tones coherently — no random-phase
// cancellation at low severity — and appended tones draw their phases
// from a dedicated deterministic stream (salt 0xfa017) so the base
// recipe's RNG consumption is untouched.
func (f *FaultyPump) injectInto(spec *VibrationSpec, serviceDays float64, rng *rand.Rand) {
	sev := f.fault.Severity
	if f.fault.Class == FaultNone || sev <= 0 {
		return
	}
	f.Pump.reseedMeasurement(rng, serviceDays, 0xfa017)
	switch f.fault.Class {
	case FaultImbalance:
		// Mass imbalance: the 1× grows radially; the axial projection
		// barely moves.
		for axis := 0; axis < 3; axis++ {
			tones := spec.Tones[axis]
			if len(tones) == 0 {
				continue
			}
			if axis < 2 {
				tones[0].Amp *= 1 + 6*sev
			} else {
				tones[0].Amp *= 1 + 0.8*sev
			}
		}
	case FaultMisalignment:
		for axis := 0; axis < 3; axis++ {
			tones := spec.Tones[axis]
			if len(tones) < 2 {
				continue
			}
			switch {
			case f.fault.Misalign == MisalignParallel && axis < 2:
				// Parallel offset: dominant radial 2×, mild 1×.
				tones[0].Amp *= 1 + 0.8*sev
				tones[1].Amp *= 1 + 8*sev
			case f.fault.Misalign == MisalignParallel:
				tones[1].Amp *= 1 + 2*sev
			case axis < 2:
				// Angular: radial 2× grows, and the axial projection
				// carries the signature.
				tones[0].Amp *= 1 + 1.5*sev
				tones[1].Amp *= 1 + 7*sev
			default:
				tones[0].Amp *= 1 + 5*sev
				tones[1].Amp *= 1 + 9*sev
			}
		}
	case FaultLooseness:
		// Intermittent contact folds the rotor motion through a
		// clearance: half-order sub- and super-harmonics stream in and
		// the low integer harmonics coarsen.
		for axis := 0; axis < 3; axis++ {
			g := axisGains[axis]
			tones := spec.Tones[axis]
			for k := 2; k < len(tones) && k < 6; k++ {
				tones[k].Amp *= 1 + 0.8*sev
			}
			for k, mult := range loosenessMultiples {
				amp := baseToneAmp * g * 1.6 * sev / (1 + 0.35*float64(k))
				spec.Tones[axis] = append(spec.Tones[axis], Tone{
					Freq:  f.Pump.rotorHz * mult,
					Amp:   amp,
					Phase: 2 * math.Pi * rng.Float64(),
				})
			}
		}
	case FaultBearing:
		// A localized spall excites the casing resonance once per
		// rolling-element pass: an amplitude-modulated carrier, which
		// in the tone domain is the carrier plus sideband pairs spaced
		// at the defect frequency. The envelope spectrum of this
		// cluster peaks exactly at the defect frequency — the signature
		// the detector matches against the geometry's computed BPFO /
		// BPFI / BSF / FTF.
		fd := f.fault.Bearing.DefectHz(f.fault.Defect, f.Pump.rotorHz)
		fc := f.fault.ResonanceHz
		for axis := 0; axis < 3; axis++ {
			g := axisGains[axis]
			carrier := baseToneAmp * g * (0.4 + 2.6*sev)
			spec.Tones[axis] = append(spec.Tones[axis], Tone{
				Freq:  fc,
				Amp:   carrier,
				Phase: 2 * math.Pi * rng.Float64(),
			})
			for k, rel := range bearingSidebands {
				off := float64(k+1) * fd
				for _, side := range [2]float64{fc - off, fc + off} {
					if side <= 0 {
						continue
					}
					spec.Tones[axis] = append(spec.Tones[axis], Tone{
						Freq:  side,
						Amp:   carrier * rel,
						Phase: 2 * math.Pi * rng.Float64(),
					})
				}
			}
		}
	}
}

var (
	// loosenessMultiples are the half-order rotor multiples of
	// mechanical looseness.
	loosenessMultiples = []float64{0.5, 1.5, 2.5, 3.5, 4.5}
	// bearingSidebands are the relative amplitudes of the sideband
	// pairs at ±1, ±2, ±3 × the defect frequency around the carrier —
	// the Fourier series of the repetitive impact envelope.
	bearingSidebands = []float64{0.5, 0.22, 0.09}
)
