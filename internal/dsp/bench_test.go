package dsp

import (
	"math/rand"
	"testing"
)

func benchSignal(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

func BenchmarkFFT1024(b *testing.B) {
	x := benchSignal(1024)
	buf := make([]complex128, 1024)
	b.ReportAllocs()
	for b.Loop() {
		for j, v := range x {
			buf[j] = complex(v, 0)
		}
		FFT(buf)
	}
}

func BenchmarkFFTBluestein1000(b *testing.B) {
	x := benchSignal(1000)
	buf := make([]complex128, 1000)
	b.ReportAllocs()
	for b.Loop() {
		for j, v := range x {
			buf[j] = complex(v, 0)
		}
		FFT(buf)
	}
}

// BenchmarkRecordPower1024 is the record spectrum's own kernel: one
// record's three 1,024-count axes to its DCT power and moments.
func BenchmarkRecordPower1024(b *testing.B) {
	var axes [3][]int16
	for l := range axes {
		axes[l] = make([]int16, 1024)
		for i, v := range benchSignal(1024) {
			axes[l][i] = int16(v*900) + int16(100*l)
		}
	}
	psd := make([]float64, 1024)
	b.ReportAllocs()
	for b.Loop() {
		RecordPower(psd, &axes, 0.0039)
	}
}

func BenchmarkWelch16k(b *testing.B) {
	x := benchSignal(16384)
	freq := make([]float64, 1024/2+1)
	psd := make([]float64, 1024/2+1)
	b.ReportAllocs()
	for b.Loop() {
		if err := WelchInto(freq, psd, x, 1000, 1024); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEnvelope4096(b *testing.B) {
	x := benchSignal(4096)
	dst := make([]float64, 4096)
	b.ReportAllocs()
	for b.Loop() {
		EnvelopeInto(dst, x)
	}
}

func BenchmarkEnvelopeSpectrum4096(b *testing.B) {
	x := benchSignal(4096)
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := EnvelopeSpectrumInto(nil, nil, x, 4000); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSmoothHann24 is the harmonic search's smoothing: a 1,024-bin
// spectrum through the n_h = 24 sliding Hann sum into a kept buffer.
func BenchmarkSmoothHann24(b *testing.B) {
	x := benchSignal(1024)
	dst := make([]float64, len(x))
	b.ReportAllocs()
	for b.Loop() {
		smoothHannInto(dst, x, 24)
	}
}

func BenchmarkTopPeaks(b *testing.B) {
	x := benchSignal(1024)
	freq := make([]float64, 1024)
	for i := range freq {
		freq[i] = float64(i) * 2
	}
	var dst []Peak
	b.ReportAllocs()
	for b.Loop() {
		dst = TopPeaksInto(dst, freq, x, 20, 24)
	}
}
