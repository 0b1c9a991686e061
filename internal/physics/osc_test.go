package physics

import (
	"math"
	"math/rand"
	"testing"
)

// naiveAcceleration is the pre-oscillator reference synthesizer: one
// math.Sin per sample per tone, kept here to pin the phase-recurrence
// kernel against. It must mirror AccelerationInto exactly except for
// the sine evaluation.
func naiveAcceleration(p *Pump, serviceDays, fs float64, k int) (ax, ay, az []float64) {
	spec := p.spec(serviceDays)
	rng := p.measurementRNG(serviceDays, 0xacce1)
	out := [3][]float64{
		make([]float64, k),
		make([]float64, k),
		make([]float64, k),
	}
	for axis := 0; axis < 3; axis++ {
		buf := out[axis]
		for _, tone := range spec.Tones[axis] {
			if tone.Freq >= fs/2 {
				continue
			}
			w := 2 * math.Pi * tone.Freq / fs
			for i := 0; i < k; i++ {
				buf[i] += tone.Amp * math.Sin(w*float64(i)+tone.Phase)
			}
		}
		noise := spec.NoiseStd[axis]
		for i := 0; i < k; i++ {
			buf[i] = spec.Gain * (buf[i] + noise*rng.NormFloat64())
		}
	}
	for i := 0; i < k; i++ {
		out[2][i] += 1.0
	}
	return out[0], out[1], out[2]
}

// TestOscillatorMatchesSin pins the phase-recurrence oscillator to the
// naive math.Sin synthesis within 1e-9 across measurement times that
// exercise every tone family: healthy harmonics only, bearing-defect
// tones, subharmonics, and the past-wear-out regime. 1e-9 is far below
// the 16-bit quantization step, so the committed dataset goldens stay
// valid.
func TestOscillatorMatchesSin(t *testing.T) {
	p := NewPump(PumpConfig{ID: 3, Seed: 99})
	life := p.LifeDays()
	// Degradation levels covering zone A, early/late BC, D, and d > 1.
	for _, d := range []float64{0, 0.05, 0.2, 0.45, 0.66, 0.75, 0.9, 1.05} {
		day := d * life
		wx, wy, wz := naiveAcceleration(p, day, 4000, 1024)
		gx, gy, gz := p.Acceleration(day, 4000, 1024)
		for axis, pair := range [][2][]float64{{wx, gx}, {wy, gy}, {wz, gz}} {
			want, got := pair[0], pair[1]
			for i := range want {
				if diff := math.Abs(want[i] - got[i]); diff > 1e-9 {
					t.Fatalf("d=%.2f axis %d sample %d: |%.15g - %.15g| = %g > 1e-9",
						d, axis, i, want[i], got[i], diff)
				}
			}
		}
	}
}

// TestOscillatorLongCapture checks the renormalized recurrence does not
// drift over a capture much longer than the renorm interval.
func TestOscillatorLongCapture(t *testing.T) {
	p := NewPump(PumpConfig{ID: 1, Seed: 7, InitialAgeDays: 400})
	wx, _, _ := naiveAcceleration(p, 30, 8000, 1<<15)
	gx, _, _ := p.Acceleration(30, 8000, 1<<15)
	for i := range wx {
		if diff := math.Abs(wx[i] - gx[i]); diff > 1e-9 {
			t.Fatalf("sample %d: drift %g > 1e-9", i, diff)
		}
	}
}

// TestAccelerationIntoMatchesAcceleration checks the zero-alloc variant
// is bit-identical to the allocating one.
func TestAccelerationIntoMatchesAcceleration(t *testing.T) {
	p := NewPump(PumpConfig{ID: 5, Seed: 11, InitialAgeDays: 300})
	ax, ay, az := p.Acceleration(12.5, 4000, 512)
	bx := make([]float64, 512)
	by := make([]float64, 512)
	bz := make([]float64, 512)
	// Dirty buffers must be fully overwritten.
	for i := range bx {
		bx[i], by[i], bz[i] = 1e9, -1e9, math.NaN()
	}
	p.AccelerationInto(bx, by, bz, 12.5, 4000)
	for i := range ax {
		if ax[i] != bx[i] || ay[i] != by[i] || az[i] != bz[i] {
			t.Fatalf("sample %d differs: (%g,%g,%g) vs (%g,%g,%g)",
				i, ax[i], ay[i], az[i], bx[i], by[i], bz[i])
		}
	}
}

// sequentialTones is synthTones without the interleaving: one
// synthTone pass per tone below Nyquist, in order. The interleaved
// kernel must equal it bit for bit.
func sequentialTones(buf []float64, tones []Tone, fs float64) {
	for _, tone := range tones {
		if tone.Freq >= fs/2 {
			continue
		}
		w := 2 * math.Pi * tone.Freq / fs
		synthTone(buf, tone.Amp, w, tone.Phase)
	}
}

// checkInterleaved runs synthTones and sequentialTones over copies of
// the same starting buffer and fails on the first sample whose bits
// differ (two NaNs count as equal).
func checkInterleaved(t *testing.T, start []float64, tones []Tone, fs float64) {
	t.Helper()
	got := append([]float64(nil), start...)
	want := append([]float64(nil), start...)
	synthTones(got, tones, fs)
	sequentialTones(want, tones, fs)
	for i := range want {
		g, w := got[i], want[i]
		if math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
			t.Fatalf("%d tones, %d samples: sample %d = %v, sequential %v", len(tones), len(start), i, g, w)
		}
	}
}

// TestSynthInterleavedMatchesSequential: the two-rotor kernel behind
// renderInto is bitwise the sequential synthTone sum for 0–30 tones
// (odd counts end on the synthTone leftover), lengths from 1 to 4,096
// on both sides of every 256-sample renormalization, and tones at and
// above Nyquist mixed in to be dropped. Buffers start non-zero, so the
// order each sample's terms are added in is checked too.
func TestSynthInterleavedMatchesSequential(t *testing.T) {
	const fs = 4000
	rng := rand.New(rand.NewSource(38))
	lengths := []int{1, 2, 3, 7, 255, 256, 257, 511, 512, 513, 1000, 1023, 1024, 1025, 2048, 4095, 4096}
	for n := 0; n <= 30; n++ {
		for _, k := range lengths {
			tones := make([]Tone, n)
			for i := range tones {
				freq := rng.Float64() * 0.6 * fs
				if i%9 == 4 {
					freq = fs / 2
				}
				tones[i] = Tone{Freq: freq, Amp: rng.Float64() * 0.1, Phase: 2 * math.Pi * rng.Float64()}
			}
			start := make([]float64, k)
			for i := range start {
				start[i] = rng.NormFloat64()
			}
			checkInterleaved(t, start, tones, fs)
		}
	}
}

// FuzzSynthInterleaved extends the table to random amplitudes,
// frequencies (so w, and Nyquist drops), phases and lengths over three
// tones: one interleaved pair and one leftover.
func FuzzSynthInterleaved(f *testing.F) {
	f.Add(0.035, 119.0, 1.0, 0.02, 238.0, 2.0, 0.01, 357.0, 3.0, uint16(1024))
	f.Add(1.0, 2000.0, 0.0, 1.0, 1999.9, 0.5, 1.0, 0.0, -1.0, uint16(257))
	f.Add(-3.0, 1e-9, 1e6, 1e300, 1500.0, -7.0, 0.0, 4000.0, 0.0, uint16(4096))
	f.Fuzz(func(t *testing.T, a0, f0, p0, a1, f1, p1, a2, f2, p2 float64, n uint16) {
		start := make([]float64, int(n)%4097)
		for i := range start {
			start[i] = float64(i%7) - 3
		}
		checkInterleaved(t, start, []Tone{{f0, a0, p0}, {f1, a1, p1}, {f2, a2, p2}}, 4000)
	})
}

func BenchmarkAcceleration(b *testing.B) {
	p := NewPump(PumpConfig{ID: 7, Seed: 42, InitialAgeDays: 500})
	b.ReportAllocs()
	for b.Loop() {
		p.Acceleration(80, 4000, 1024)
	}
}

func BenchmarkAccelerationInto(b *testing.B) {
	p := NewPump(PumpConfig{ID: 7, Seed: 42, InitialAgeDays: 500})
	ax := make([]float64, 1024)
	ay := make([]float64, 1024)
	az := make([]float64, 1024)
	b.ReportAllocs()
	for b.Loop() {
		p.AccelerationInto(ax, ay, az, 80, 4000)
	}
}
