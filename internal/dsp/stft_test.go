package dsp

import (
	"math"
	"testing"
)

// binAt returns the index of sg's frequency bin closest to f.
func binAt(sg *Spectrogram, f float64) int {
	best := 0
	for k, fk := range sg.Freqs {
		if math.Abs(fk-f) < math.Abs(sg.Freqs[best]-f) {
			best = k
		}
	}
	return best
}

// bandEnergyOverTime returns, per frame, sg's total power between lo
// and hi Hz.
func bandEnergyOverTime(sg *Spectrogram, lo, hi float64) []float64 {
	out := make([]float64, len(sg.Power))
	for t, row := range sg.Power {
		for k, f := range sg.Freqs {
			if f >= lo && f <= hi {
				out[t] += row[k]
			}
		}
	}
	return out
}

func TestSTFTStationaryTone(t *testing.T) {
	fs := 2048.0
	n := 4096
	f0 := 256.0
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(2 * math.Pi * f0 * float64(i) / fs)
	}
	sg, err := STFT(x, fs, STFTConfig{FrameLength: 256})
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Power) < 10 {
		t.Fatalf("frames %d", len(sg.Power))
	}
	bin := binAt(sg, f0)
	if math.Abs(sg.Freqs[bin]-f0) > fs/256 {
		t.Fatalf("bin frequency %.1f", sg.Freqs[bin])
	}
	// Every frame peaks at the tone bin.
	for ti, row := range sg.Power {
		best := 0
		for k := range row {
			if row[k] > row[best] {
				best = k
			}
		}
		if best != bin {
			t.Fatalf("frame %d peaks at bin %d, want %d", ti, best, bin)
		}
	}
	// Times are increasing and within the signal span.
	for i := 1; i < len(sg.Times); i++ {
		if sg.Times[i] <= sg.Times[i-1] {
			t.Fatal("times not increasing")
		}
	}
	if sg.Times[len(sg.Times)-1] > float64(n)/fs {
		t.Fatal("frame time beyond signal end")
	}
}

func TestSTFTDetectsTransient(t *testing.T) {
	// A tone that switches on halfway: early frames quiet, late frames
	// loud in the tone band — the property a whole-signal PSD cannot
	// show.
	fs := 2048.0
	n := 4096
	f0 := 300.0
	x := make([]float64, n)
	for i := n / 2; i < n; i++ {
		x[i] = 2 * math.Sin(2*math.Pi*f0*float64(i)/fs)
	}
	sg, err := STFT(x, fs, STFTConfig{FrameLength: 256})
	if err != nil {
		t.Fatal(err)
	}
	energy := bandEnergyOverTime(sg, f0-20, f0+20)
	mid := float64(n) / 2 / fs
	var early, late float64
	var earlyN, lateN int
	for i, tt := range sg.Times {
		if tt < mid-0.05 {
			early += energy[i]
			earlyN++
		} else if tt > mid+0.05 {
			late += energy[i]
			lateN++
		}
	}
	if earlyN == 0 || lateN == 0 {
		t.Fatal("frame split failed")
	}
	if late/float64(lateN) < 100*early/float64(earlyN+1) {
		t.Fatalf("transient invisible: early %.4g late %.4g", early/float64(earlyN), late/float64(lateN))
	}
}

func TestSTFTErrorsAndDefaults(t *testing.T) {
	if _, err := STFT(nil, 100, STFTConfig{}); err == nil {
		t.Fatal("want empty-signal error")
	}
	if _, err := STFT([]float64{1}, 0, STFTConfig{}); err == nil {
		t.Fatal("want rate error")
	}
	// Frame clamped to signal length; hop defaults.
	x := make([]float64, 100)
	for i := range x {
		x[i] = float64(i % 7)
	}
	sg, err := STFT(x, 100, STFTConfig{FrameLength: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Power) != 1 {
		t.Fatalf("frames %d", len(sg.Power))
	}
	if len(sg.Freqs) != 51 {
		t.Fatalf("bins %d", len(sg.Freqs))
	}
}
