package dsp

import (
	"math"
	"testing"
)

func TestEnvelopeOfPureTone(t *testing.T) {
	// The envelope of a constant-amplitude sinusoid is (approximately)
	// its amplitude everywhere.
	n := 1024
	x := make([]float64, n)
	for i := range x {
		x[i] = 3 * math.Sin(2*math.Pi*50*float64(i)/1000)
	}
	env := EnvelopeInto(nil, x)
	// Ignore edges (Hilbert edge effects).
	for i := 50; i < n-50; i++ {
		if math.Abs(env[i]-3) > 0.1 {
			t.Fatalf("envelope at %d = %.3f, want ≈3", i, env[i])
		}
	}
}

func TestEnvelopeRecoversModulation(t *testing.T) {
	// An AM signal: carrier 400 Hz modulated at 20 Hz. The envelope
	// must oscillate at the modulation rate, and the envelope spectrum
	// must peak at 20 Hz — the bearing-diagnostics property.
	fs := 2048.0
	n := 2048
	x := make([]float64, n)
	for i := range x {
		tt := float64(i) / fs
		x[i] = (1 + 0.8*math.Sin(2*math.Pi*20*tt)) * math.Sin(2*math.Pi*400*tt)
	}
	freq, psd, err := EnvelopeSpectrumInto(nil, nil, x, fs)
	if err != nil {
		t.Fatal(err)
	}
	// Find the dominant envelope-spectrum peak below 100 Hz.
	best := 0
	for k := range psd {
		if freq[k] < 5 || freq[k] > 100 {
			continue
		}
		if psd[k] > psd[best] {
			best = k
		}
	}
	if math.Abs(freq[best]-20) > 2 {
		t.Fatalf("envelope spectrum peak at %.1f Hz, want 20", freq[best])
	}
	// The carrier itself must NOT dominate the envelope spectrum.
	carrierPower := 0.0
	for k := range psd {
		if freq[k] > 380 && freq[k] < 420 {
			carrierPower += psd[k]
		}
	}
	if carrierPower > psd[best] {
		t.Fatalf("carrier leaked into the envelope spectrum: %.4g vs %.4g", carrierPower, psd[best])
	}
}

func TestEnvelopeEdgeCases(t *testing.T) {
	if got := EnvelopeInto(nil, nil); len(got) != 0 {
		t.Fatal("empty envelope")
	}
	if got := EnvelopeInto(nil, []float64{-5}); got[0] != 5 {
		t.Fatalf("single-sample envelope %g", got[0])
	}
	// Odd-length input exercises the odd-n branch.
	n := 513
	x := make([]float64, n)
	for i := range x {
		x[i] = 2 * math.Cos(2*math.Pi*30*float64(i)/1000)
	}
	env := EnvelopeInto(nil, x)
	for i := 60; i < n-60; i++ {
		if math.Abs(env[i]-2) > 0.15 {
			t.Fatalf("odd-n envelope at %d = %.3f", i, env[i])
		}
	}
}

func TestEnvelopeNonNegative(t *testing.T) {
	x := []float64{1, -2, 3, -4, 5, -6, 7, -8}
	for i, v := range EnvelopeInto(nil, x) {
		if v < 0 {
			t.Fatalf("negative envelope at %d: %g", i, v)
		}
	}
}
