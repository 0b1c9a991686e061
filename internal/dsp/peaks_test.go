package dsp

import (
	"math"
	"math/rand"
	"testing"
)

func TestFindPeaksSimple(t *testing.T) {
	y := []float64{0, 1, 0, 2, 0, 3, 0}
	peaks := FindPeaksInto(nil, nil, y)
	if len(peaks) != 3 {
		t.Fatalf("found %d peaks, want 3: %+v", len(peaks), peaks)
	}
	wantIdx := []int{1, 3, 5}
	for i, p := range peaks {
		if p.Index != wantIdx[i] {
			t.Fatalf("peak %d at index %d, want %d", i, p.Index, wantIdx[i])
		}
		if p.Freq != float64(wantIdx[i]) {
			t.Fatalf("nil freq axis should yield bin index, got %g", p.Freq)
		}
	}
}

func TestFindPeaksPlateau(t *testing.T) {
	y := []float64{0, 2, 2, 2, 0}
	peaks := FindPeaksInto(nil, nil, y)
	if len(peaks) != 1 || peaks[0].Index != 1 {
		t.Fatalf("plateau peaks = %+v", peaks)
	}
}

func TestFindPeaksMonotone(t *testing.T) {
	if got := FindPeaksInto(nil, nil, []float64{1, 2, 3, 4}); len(got) != 0 {
		t.Fatalf("monotone rising should have no interior peak: %+v", got)
	}
	if got := FindPeaksInto(nil, nil, []float64{4, 3, 2, 1}); len(got) != 0 {
		t.Fatalf("monotone falling should have no interior peak: %+v", got)
	}
	if got := FindPeaksInto(nil, nil, []float64{1, 2}); len(got) != 0 {
		t.Fatal("too-short input should have no peaks")
	}
}

func TestFindPeaksEndpointsExcluded(t *testing.T) {
	// First-derivative sign change cannot happen at the endpoints.
	y := []float64{5, 1, 1, 1, 5}
	if got := FindPeaksInto(nil, nil, y); len(got) != 0 {
		t.Fatalf("endpoints must not be peaks: %+v", got)
	}
}

func TestTopPeaksSelectsLargestAndSortsByFrequency(t *testing.T) {
	freq := make([]float64, 100)
	y := make([]float64, 100)
	for i := range freq {
		freq[i] = float64(i) * 2
	}
	// Peaks at 10 (value 3), 50 (value 9), 80 (value 6).
	y[10], y[50], y[80] = 3, 9, 6
	peaks := TopPeaksInto(nil, freq, y, 2, 0)
	if len(peaks) != 2 {
		t.Fatalf("got %d peaks", len(peaks))
	}
	// Two largest are 50 and 80; sorted ascending by index.
	if peaks[0].Index != 50 || peaks[1].Index != 80 {
		t.Fatalf("peaks = %+v", peaks)
	}
	if peaks[0].Freq != 100 || peaks[1].Freq != 160 {
		t.Fatalf("frequencies = %+v", peaks)
	}
}

// TestTopPeaksSmallWindows: a window of at most three bins smooths
// nothing, so the search finds y's own three peaks. Hann(2) = [0 0] has
// no mass: smoothed with it, y would read all zeros and have no peak.
func TestTopPeaksSmallWindows(t *testing.T) {
	y := make([]float64, 100)
	y[10], y[50], y[80] = 3, 9, 6
	for _, nh := range []int{0, 1, 2, 3} {
		peaks := TopPeaksInto(nil, nil, y, 20, nh)
		if len(peaks) != 3 || peaks[0].Index != 10 || peaks[1].Index != 50 || peaks[2].Index != 80 {
			t.Errorf("n_h = %d: peaks %+v, want bins 10, 50 and 80", nh, peaks)
		}
	}
}

func TestTopPeaksSmoothingSuppressesNoiseSpikes(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	n := 1024
	freq := make([]float64, n)
	y := make([]float64, n)
	for i := range y {
		freq[i] = float64(i)
		y[i] = 0.05 * rng.Float64() // noise floor full of micro-peaks
	}
	// One broad true peak around bin 500.
	for i := 480; i < 520; i++ {
		d := float64(i - 500)
		y[i] += 5 * math.Exp(-d*d/50)
	}
	peaks := TopPeaksInto(nil, freq, y, 1, 24)
	if len(peaks) != 1 {
		t.Fatalf("got %d peaks", len(peaks))
	}
	if math.Abs(float64(peaks[0].Index-500)) > 10 {
		t.Fatalf("smoothed peak at bin %d, want ~500", peaks[0].Index)
	}
}

func TestTopPeaksNoLimit(t *testing.T) {
	y := []float64{0, 1, 0, 1, 0}
	peaks := TopPeaksInto(nil, nil, y, 0, 0)
	if len(peaks) != 2 {
		t.Fatalf("np=0 should keep all peaks, got %d", len(peaks))
	}
}
