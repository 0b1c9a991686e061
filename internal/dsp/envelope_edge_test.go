package dsp

import (
	"math"
	"testing"
)

// TestEnvelopeIntoTable pins the degenerate shapes the fault detectors
// can feed the envelope path: empty, single-sample, two-sample, odd
// lengths, DC-only and constant signals. Each must round-trip without
// panicking, preserve length, and stay non-negative.
func TestEnvelopeIntoTable(t *testing.T) {
	constant := func(n int, c float64) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = c
		}
		return x
	}
	cases := []struct {
		name string
		x    []float64
		// wantConst, when non-NaN, asserts every output sample.
		wantConst float64
	}{
		{"empty", nil, math.NaN()},
		{"len-1", []float64{-2.5}, 2.5},
		{"len-2", []float64{1, -1}, math.NaN()},
		{"len-3-odd", []float64{1, 0, -1}, math.NaN()},
		{"dc-only", constant(64, 4), 4},
		{"negative-dc", constant(33, -3), 3},
		{"zeros", constant(16, 0), 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			env := EnvelopeInto(nil, tc.x)
			if len(env) != len(tc.x) {
				t.Fatalf("len %d, want %d", len(env), len(tc.x))
			}
			for i, v := range env {
				if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("env[%d] = %g", i, v)
				}
				if !math.IsNaN(tc.wantConst) && math.Abs(v-tc.wantConst) > 1e-9 {
					t.Fatalf("env[%d] = %g, want %g", i, v, tc.wantConst)
				}
			}
			// The Into variant must agree exactly, both with an
			// undersized dst (forced growth) and an oversized one
			// (in-place reuse).
			small := EnvelopeInto(nil, tc.x)
			big := make([]float64, len(tc.x)+8)
			reused := EnvelopeInto(big, tc.x)
			if len(reused) != len(tc.x) {
				t.Fatalf("reused len %d", len(reused))
			}
			if len(tc.x) > 0 && &reused[0] != &big[0] {
				t.Fatal("oversized dst was not reused")
			}
			for i := range env {
				if env[i] != small[i] || env[i] != reused[i] {
					t.Fatalf("Into variants disagree at %d: %g %g %g", i, env[i], small[i], reused[i])
				}
			}
		})
	}
}

// TestEnvelopeSpectrumEdgeCases pins the error/degenerate contract of
// the spectrum wrapper: empty input and non-positive rates are errors,
// tiny and constant inputs succeed with a well-formed (possibly silent)
// spectrum.
func TestEnvelopeSpectrumEdgeCases(t *testing.T) {
	if _, _, err := EnvelopeSpectrumInto(nil, nil, nil, 1000); err == nil {
		t.Fatal("empty input must error")
	}
	if _, _, err := EnvelopeSpectrumInto(nil, nil, []float64{1, 2, 3, 4}, 0); err == nil {
		t.Fatal("zero sample rate must error")
	}
	if _, _, err := EnvelopeSpectrumInto(nil, nil, []float64{1, 2, 3, 4}, -10); err == nil {
		t.Fatal("negative sample rate must error")
	}
	for _, tc := range []struct {
		name string
		x    []float64
	}{
		{"len-1", []float64{3}},
		{"len-2", []float64{3, -3}},
		{"len-5-odd", []float64{1, 2, 3, 2, 1}},
		{"constant", []float64{7, 7, 7, 7, 7, 7, 7, 7}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			freq, psd, err := EnvelopeSpectrumInto(nil, nil, tc.x, 1000)
			if err != nil {
				t.Fatal(err)
			}
			if len(freq) != len(psd) || len(freq) == 0 {
				t.Fatalf("lens %d/%d", len(freq), len(psd))
			}
			for k := range psd {
				if psd[k] < 0 || math.IsNaN(psd[k]) || math.IsInf(psd[k], 0) {
					t.Fatalf("psd[%d] = %g", k, psd[k])
				}
			}
			// A constant signal's envelope is constant: its demeaned
			// periodogram is silent.
			if tc.name == "constant" {
				for k, p := range psd {
					if p > 1e-18 {
						t.Fatalf("constant signal leaked power: psd[%d] = %g", k, p)
					}
				}
			}
		})
	}
}

// TestEnvelopeSpectrumIntoReuse pins the Into variant to the
// allocating one across reused, oversized and undersized outputs.
func TestEnvelopeSpectrumIntoReuse(t *testing.T) {
	var freqBuf, psdBuf []float64
	for _, n := range []int{512, 7, 1000, 64} {
		x := make([]float64, n)
		for i := range x {
			x[i] = (1 + 0.5*math.Sin(2*math.Pi*37*float64(i)/1000)) * math.Sin(2*math.Pi*210*float64(i)/1000)
		}
		freq, psd, err := EnvelopeSpectrumInto(nil, nil, x, 1000)
		if err != nil {
			t.Fatal(err)
		}
		freqBuf, psdBuf, err = EnvelopeSpectrumInto(freqBuf, psdBuf, x, 1000)
		if err != nil {
			t.Fatal(err)
		}
		if len(psdBuf) != len(psd) || len(freqBuf) != len(freq) {
			t.Fatalf("n=%d: lens %d/%d, want %d", n, len(freqBuf), len(psdBuf), len(psd))
		}
		for k := range psd {
			if psdBuf[k] != psd[k] || freqBuf[k] != freq[k] {
				t.Fatalf("n=%d bin %d: Into (%g, %g), allocating (%g, %g)", n, k, freqBuf[k], psdBuf[k], freq[k], psd[k])
			}
		}
	}
	if _, _, err := EnvelopeSpectrumInto(freqBuf, psdBuf, nil, 1000); err == nil {
		t.Fatal("empty input must error")
	}
}
