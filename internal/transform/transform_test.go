package transform

import (
	"math"
	"math/rand"
	"testing"

	"vibepm/internal/mems"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

func captureRecord(t *testing.T, pump *physics.Pump, day float64) *store.Record {
	t.Helper()
	sensor, err := mems.New(mems.Config{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	m := sensor.Measure(pump, day, 1024)
	rec := &store.Record{
		PumpID:       pump.ID(),
		ServiceDays:  day,
		SampleRateHz: m.SampleRateHz,
		ScaleG:       m.ScaleG,
	}
	for axis := 0; axis < 3; axis++ {
		rec.Raw[axis] = m.Raw[axis]
	}
	return rec
}

func TestCountsToG(t *testing.T) {
	got := CountsToG([]int16{100, -200, 0}, 0.01)
	want := []float64{1, -2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("CountsToG = %v", got)
		}
	}
}

// TestOffsetsCarryGravity: the per-axis zero offsets are the bias the
// PSD's demeaning (â = a − 1·ā) removes — the z offset carries the 1 g
// of gravity, x carries none.
func TestOffsetsCarryGravity(t *testing.T) {
	pump := physics.NewPump(physics.PumpConfig{ID: 0, Seed: 1})
	rec := captureRecord(t, pump, 1)
	offsets := Offsets(rec)
	if math.Abs(offsets[2]-1) > 0.05 {
		t.Fatalf("z offset %.3f", offsets[2])
	}
	if math.Abs(offsets[0]) > 0.05 {
		t.Fatalf("x offset %.3f", offsets[0])
	}
}

func TestPSDParsevalAcrossAxes(t *testing.T) {
	// sum(s_mn) must equal Σ_l rms_l²/2 = RMS²/2 — the identity that
	// lets the paper drop the separate RMS feature.
	pump := physics.NewPump(physics.PumpConfig{ID: 1, Seed: 2})
	rec := captureRecord(t, pump, 1)
	_, psd := PSD(rec)
	var sum float64
	for _, v := range psd {
		sum += v
	}
	r := RMS(rec)
	if math.Abs(sum-r*r/2) > 1e-9*(1+r*r) {
		t.Fatalf("sum(PSD)=%.9g, RMS²/2=%.9g", sum, r*r/2)
	}
}

// TestPSDFrequencyAxisIsTheInlineLoop: PSDInto's frequency axis, copied
// from the cached one or computed past the cache, is bit for bit
// float64(i)*rate/(2*float64(k)) at every rate and length — those a
// fleet samples at, awkward ones, and more (rate, length) pairs than
// the cache keeps.
func TestPSDFrequencyAxisIsTheInlineLoop(t *testing.T) {
	rates := []float64{4000, 3200, 22000, 150, 1000.5, 4096 / 3.0, 7919.123}
	lengths := []int{1, 2, 3, 511, 512, 1000, 1024, 4096}
	var freq, psd []float64
	for _, rate := range rates {
		for _, k := range lengths {
			rec := &store.Record{SampleRateHz: rate, ScaleG: 0.0039}
			for axis := range rec.Raw {
				rec.Raw[axis] = make([]int16, k)
				for i := range rec.Raw[axis] {
					rec.Raw[axis][i] = int16((i*7 + axis) % 50)
				}
			}
			for pass := 0; pass < 2; pass++ { // a miss, then a hit
				freq, psd, _ = PSDInto(freq, psd, rec)
				if len(freq) != k {
					t.Fatalf("rate %v, k %d: %d bins", rate, k, len(freq))
				}
				for i, f := range freq {
					if want := float64(i) * rate / (2 * float64(k)); math.Float64bits(f) != math.Float64bits(want) {
						t.Fatalf("rate %v, k %d, bin %d: %v, inline %v", rate, k, i, f, want)
					}
				}
			}
		}
	}
}

func TestPSDPeakNearRotor(t *testing.T) {
	pump := physics.NewPump(physics.PumpConfig{ID: 2, Seed: 3, RotorHz: 120})
	rec := captureRecord(t, pump, 1)
	freq, psd := PSD(rec)
	best := 0
	for i := range psd {
		if psd[i] > psd[best] {
			best = i
		}
	}
	if math.Abs(freq[best]-120) > 10 {
		t.Fatalf("dominant bin at %.1f Hz", freq[best])
	}
}

func TestRMSGrowsWithWear(t *testing.T) {
	healthy := physics.NewPump(physics.PumpConfig{ID: 3, LifeDays: 600, Seed: 4})
	worn := physics.NewPump(physics.PumpConfig{ID: 3, LifeDays: 600, InitialAgeDays: 540, Seed: 4})
	var rh, rw float64
	for i := 0; i < 5; i++ {
		day := float64(i)
		rh += RMS(captureRecord(t, healthy, day))
		rw += RMS(captureRecord(t, worn, day))
	}
	if rw <= rh {
		t.Fatalf("worn RMS %.4f should exceed healthy %.4f", rw/5, rh/5)
	}
}

func TestAmplitudeSpectrum(t *testing.T) {
	got := AmplitudeSpectrum([]float64{4, 0, -1, 9})
	want := []float64{2, 0, 0, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AmplitudeSpectrum = %v", got)
		}
	}
}

func TestVelocityPSDScalesInverselyWithFrequency(t *testing.T) {
	freq := []float64{0, 100, 200}
	accel := []float64{1, 1, 1}
	vel := VelocityPSD(freq, accel)
	if vel[0] != 0 {
		t.Fatalf("DC velocity %g", vel[0])
	}
	// Doubling frequency quarters the velocity PSD.
	if math.Abs(vel[1]/vel[2]-4) > 1e-9 {
		t.Fatalf("ratio %g, want 4", vel[1]/vel[2])
	}
}

func TestVelocityRMSKnownTone(t *testing.T) {
	// A pure 100 Hz acceleration tone of amplitude A g has velocity
	// amplitude A·9806.65/(2π·100) mm/s, i.e. RMS = that / √2.
	amp := 0.1
	f0 := 100.0
	fs := 4000.0
	k := 1024
	raw := make([]int16, k)
	scale := 100.0 / 32768
	for i := range raw {
		g := amp * math.Sin(2*math.Pi*f0*float64(i)/fs)
		raw[i] = int16(g / scale)
	}
	rec := &store.Record{SampleRateHz: fs, ScaleG: scale}
	rec.Raw[0] = raw
	rec.Raw[1] = make([]int16, k)
	rec.Raw[2] = make([]int16, k)
	got := VelocityRMS(rec, 10, 1000)
	want := amp * 9806.65 / (2 * math.Pi * f0) / math.Sqrt2
	if math.Abs(got-want) > 0.15*want {
		t.Fatalf("velocity RMS %.3f mm/s, want ≈%.3f", got, want)
	}
}

// TestVelocityRMSFromPSDInPlaceIsTheTwoStepIntegral: the in-place band
// integral is bit-identical to the formulation it replaced —
// materialise VelocityPSD, then sum its in-band bins in order — over
// random spectra, sampling rates and bands (0 selects the ISO band).
func TestVelocityRMSFromPSDInPlaceIsTheTwoStepIntegral(t *testing.T) {
	twoStep := func(freq, psd []float64, loHz, hiHz float64) float64 {
		if loHz <= 0 {
			loHz = ISOBandLoHz
		}
		if hiHz <= 0 {
			hiHz = ISOBandHiHz
		}
		vel := VelocityPSD(freq, psd)
		var sum float64
		for i := range vel {
			if freq[i] >= loHz && freq[i] <= hiHz {
				sum += vel[i]
			}
		}
		return math.Sqrt(2 * sum)
	}
	rng := rand.New(rand.NewSource(25))
	for trial := 0; trial < 500; trial++ {
		k := 1 + rng.Intn(4096)
		fs := []float64{150, 3200, 4000, 22050, 1 + rng.Float64()*1e5}[rng.Intn(5)]
		freq, psd := make([]float64, k), make([]float64, k)
		for i := range psd {
			freq[i] = float64(i) * fs / (2 * float64(k))
			psd[i] = rng.ExpFloat64() * math.Pow(10, -12+10*rng.Float64())
		}
		lo, hi := 0.0, 0.0
		if trial%2 == 1 {
			lo = rng.Float64() * fs / 4
			hi = lo + rng.Float64()*fs/2
		}
		got, want := VelocityRMSFromPSD(freq, psd, lo, hi), twoStep(freq, psd, lo, hi)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("trial %d (k=%d, fs=%g, band [%g, %g]): in place %v, two-step %v", trial, k, fs, lo, hi, got, want)
		}
	}
}

func TestVelocityRMSGrowsWithWear(t *testing.T) {
	healthy := physics.NewPump(physics.PumpConfig{ID: 5, LifeDays: 600, Seed: 11})
	worn := physics.NewPump(physics.PumpConfig{ID: 5, LifeDays: 600, InitialAgeDays: 540, Seed: 11})
	vh := VelocityRMS(captureRecord(t, healthy, 1), 0, 0)
	vw := VelocityRMS(captureRecord(t, worn, 1), 0, 0)
	if vw <= vh {
		t.Fatalf("worn velocity %.3f should exceed healthy %.3f", vw, vh)
	}
}

func TestISOVelocitySeverityTracksWear(t *testing.T) {
	// Velocity severity never decreases with wear. (The simulator's
	// absolute velocity scale stays below the Class II A/B boundary —
	// its wear signature is high-frequency, which the 1/f velocity
	// weighting suppresses — so the claim is monotonicity, not a zone
	// jump.)
	healthy := physics.NewPump(physics.PumpConfig{ID: 6, LifeDays: 600, Seed: 12})
	worn := physics.NewPump(physics.PumpConfig{ID: 6, LifeDays: 600, InitialAgeDays: 560, Seed: 12})
	vh := VelocityRMS(captureRecord(t, healthy, 1), 0, 0)
	vw := VelocityRMS(captureRecord(t, worn, 1), 0, 0)
	if vw <= vh {
		t.Fatalf("velocity ordering broken: %.3f vs %.3f mm/s", vh, vw)
	}
	if physics.ZoneForVelocity(vw) < physics.ZoneForVelocity(vh) {
		t.Fatalf("ISO severity decreased with wear: %v -> %v",
			physics.ZoneForVelocity(vh), physics.ZoneForVelocity(vw))
	}
}
