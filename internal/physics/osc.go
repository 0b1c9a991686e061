package physics

import (
	"math"
	"math/rand"
	"sync"
)

// The waveform synthesizer is the dominant cost of corpus generation:
// every measurement sums ~12–26 tones over k samples, and the naive
// form pays one math.Sin per sample per tone. synthTone replaces that
// with a phase-recurrence complex oscillator — one Sincos per tone to
// seed the rotation, then one complex multiply per sample:
//
//	z_i = cis(w·i + phase),  z_{i+1} = z_i · cis(w),  sin = Im(z_i)
//
// Rounding drift of the recurrence grows like sqrt(n)·ulp, so the
// rotor is renormalized back onto the unit circle every renormEvery
// samples, keeping the output within ~1e-13 of math.Sin for any
// realistic capture length (the equivalence test pins 1e-9).
const renormEvery = 256

// synthTone adds amp·sin(w·i + phase) for i in [0, len(buf)) to buf.
func synthTone(buf []float64, amp, w, phase float64) {
	sw, cw := math.Sincos(w)
	s, c := math.Sincos(phase)
	j := 0
	for i := range buf {
		buf[i] += amp * s
		s, c = s*cw+c*sw, c*cw-s*sw
		j++
		if j == renormEvery {
			j = 0
			inv := 1 / math.Sqrt(s*s+c*c)
			s *= inv
			c *= inv
		}
	}
}

// synthPair is synthTone for two tones in one pass over buf. Each
// rotor advances by synthTone's own expressions, the shared counter
// renormalizes both at the same samples synthTone does, and each
// sample adds the first tone's term before the second's, so buf ends
// bit-identical to synthTone(buf, a0, w0, p0) followed by
// synthTone(buf, a1, w1, p1) — with half the passes over the buffer.
func synthPair(buf []float64, a0, w0, p0, a1, w1, p1 float64) {
	sw0, cw0 := math.Sincos(w0)
	s0, c0 := math.Sincos(p0)
	sw1, cw1 := math.Sincos(w1)
	s1, c1 := math.Sincos(p1)
	j := 0
	for i := range buf {
		v := buf[i]
		v += a0 * s0
		v += a1 * s1
		buf[i] = v
		s0, c0 = s0*cw0+c0*sw0, c0*cw0-s0*sw0
		s1, c1 = s1*cw1+c1*sw1, c1*cw1-s1*sw1
		j++
		if j == renormEvery {
			j = 0
			inv0 := 1 / math.Sqrt(s0*s0+c0*c0)
			s0 *= inv0
			c0 *= inv0
			inv1 := 1 / math.Sqrt(s1*s1+c1*c1)
			s1 *= inv1
			c1 *= inv1
		}
	}
}

// synthTones adds every tone below the Nyquist frequency of fs to buf,
// in order: tones above it are not representable, and the real
// sensor's anti-aliasing behaviour is approximated by dropping them.
// Kept tones go through synthPair two at a time and a leftover through
// synthTone, bit-identical to one synthTone call per kept tone.
func synthTones(buf []float64, tones []Tone, fs float64) {
	var held *Tone
	for k := range tones {
		tone := &tones[k]
		if tone.Freq >= fs/2 {
			continue
		}
		if held == nil {
			held = tone
			continue
		}
		w0 := 2 * math.Pi * held.Freq / fs
		w1 := 2 * math.Pi * tone.Freq / fs
		synthPair(buf, held.Amp, w0, held.Phase, tone.Amp, w1, tone.Phase)
		held = nil
	}
	if held != nil {
		w := 2 * math.Pi * held.Freq / fs
		synthTone(buf, held.Amp, w, held.Phase)
	}
}

// synthScratch bundles the reusable state one AccelerationInto call
// needs: the tone recipe slices and a reseedable RNG. Pooled so the
// steady-state synthesis path allocates nothing.
type synthScratch struct {
	spec VibrationSpec
	rng  *rand.Rand
}

var synthPool = sync.Pool{
	New: func() any {
		return &synthScratch{rng: rand.New(rand.NewSource(1))}
	},
}

// reseedMeasurement re-derives the deterministic per-measurement RNG
// state in place — the zero-alloc twin of measurementRNG, producing an
// identical stream.
func (p *Pump) reseedMeasurement(rng *rand.Rand, serviceDays float64, salt int64) {
	bits := int64(math.Float64bits(serviceDays))
	rng.Seed(p.cfg.Seed*0x9e3779b9 + bits ^ salt)
}

// AccelerationInto synthesizes one measurement into caller-provided
// buffers, one per axis, all of the same length k. It is the zero-alloc
// variant of Acceleration and produces bit-identical output. The z
// buffer carries the 1 g gravity bias.
func (p *Pump) AccelerationInto(ax, ay, az []float64, serviceDays, fs float64) {
	sc := synthPool.Get().(*synthScratch)
	defer synthPool.Put(sc)
	p.specInto(&sc.spec, serviceDays, sc.rng)
	p.renderInto(ax, ay, az, &sc.spec, serviceDays, fs, sc.rng)
}

// renderInto synthesizes a spectral recipe into the axis buffers: the
// tone sum via the interleaved phase-recurrence oscillators, the gain-scaled
// broadband noise, and the axial gravity bias. It is the second half
// of AccelerationInto, split out so the fault-injection layer
// (FaultyPump) can append defect tones to the spec and still share the
// exact sample-domain pipeline — a plain Pump rendered through this
// path is bit-identical to the pre-split synthesis.
func (p *Pump) renderInto(ax, ay, az []float64, spec *VibrationSpec, serviceDays, fs float64, rng *rand.Rand) {
	p.reseedMeasurement(rng, serviceDays, 0xacce1)
	out := [3][]float64{ax, ay, az}
	for axis := 0; axis < 3; axis++ {
		buf := out[axis]
		for i := range buf {
			buf[i] = 0
		}
		synthTones(buf, spec.Tones[axis], fs)
		noise := spec.NoiseStd[axis]
		gain := spec.Gain
		for i := range buf {
			// The broadband mechanical noise rides the same load
			// fluctuation as the tonal content: both are produced by
			// the rotating assembly, so the whole spectrum scales
			// together (sensor noise, added in the mems layer, does
			// not).
			buf[i] = gain * (buf[i] + noise*rng.NormFloat64())
		}
	}
	// Gravity on the axial (z) axis.
	for i := range az {
		az[i] += 1.0
	}
}

// specInto builds the ground-truth spectral recipe for a measurement at
// the given service time into out, reusing its tone slices. rng is
// reseeded to the measurement's spec stream, so the recipe is identical
// to the one spec() returns.
func (p *Pump) specInto(out *VibrationSpec, serviceDays float64, rng *rand.Rand) {
	d := p.DegradationAt(serviceDays)
	p.reseedMeasurement(rng, serviceDays, 0x7a11)

	const harmonics = 12
	base := baseToneAmp
	for axis := 0; axis < 3; axis++ {
		g := axisGains[axis]
		tones := out.Tones[axis][:0]
		for h := 1; h <= harmonics; h++ {
			// Healthy rolloff h^-0.8; wear amplifies high harmonics
			// quadratically in their order.
			amp := base * math.Pow(float64(h), -0.8)
			hiBoost := 1 + 3.5*d*math.Pow(float64(h)/harmonics, 2)
			amp *= hiBoost * g
			tones = append(tones, Tone{
				Freq:  p.rotorHz * float64(h),
				Amp:   amp,
				Phase: 2 * math.Pi * rng.Float64(),
			})
		}
		// Bearing-defect tones at non-integer multiples emerge one after
		// another through Zone B/C (outer race, inner race, rolling
		// element, cage-modulated), each growing linearly once its
		// defect develops. Staggered onsets make the harmonic-peak
		// distance grow quasi-linearly with wear — the linearity the
		// paper's lifetime models rely on — while the zone clusters stay
		// distinct.
		for k, mult := range defectMultiples {
			defect := d - (0.12 + 0.13*float64(k))
			if defect <= 0 {
				continue
			}
			amp := base * clampAmp(4.0*defect) * g
			tones = append(tones, Tone{
				Freq:  p.rotorHz * mult,
				Amp:   amp,
				Phase: 2 * math.Pi * rng.Float64(),
			})
		}
		// Half-order subharmonics — the classic rotating-machinery
		// signature of severe looseness/rub — stream in as the unit
		// approaches and passes the Zone D boundary.
		for k, mult := range subharmonicMultiples {
			severe := d - (0.62 + 0.03*float64(k))
			if severe <= 0 {
				continue
			}
			amp := base * clampAmp(6.0*severe) * g
			tones = append(tones, Tone{
				Freq:  p.rotorHz * mult,
				Amp:   amp,
				Phase: 2 * math.Pi * rng.Float64(),
			})
		}
		out.Tones[axis] = tones
		// Broadband mechanical noise grows with wear.
		out.NoiseStd[axis] = 0.004 * (1 + 2.5*d) * g
	}
	// Multiplicative fluctuation: negligible when healthy, large when
	// worn (the paper: "from zone BC to zone D the variance of PSD at
	// each frequency increases proportionally").
	sigma := 0.03 + 0.40*d
	out.Gain = math.Exp(sigma*rng.NormFloat64() - sigma*sigma/2)
	if out.Gain < 0.2 {
		out.Gain = 0.2
	}
}

var (
	defectMultiples      = []float64{3.57, 5.43, 7.81, 9.62}
	subharmonicMultiples = []float64{0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5}
)
