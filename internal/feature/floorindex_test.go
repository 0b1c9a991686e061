package feature

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"

	"vibepm/internal/dsp"
	"vibepm/internal/transform"
)

// checkFloor holds one floor query of the rank index (which must hold
// psd) to the selection it replaced: the k = m/2 element of the m bins
// in [a, b) ∪ [c, d) must be the one upperMedian selects from a copy of
// them. work is the copy's buffer.
func checkFloor(t *testing.T, ix *floorIndex, psd []float64, a, b, c, d int, work *[]float64) {
	t.Helper()
	m := b - a + d - c
	if m == 0 {
		return
	}
	*work = append(append((*work)[:0], psd[a:b]...), psd[c:d]...)
	want := upperMedian(*work)
	if got := ix.kth(a, b, c, d, m/2); !same(got, want) {
		t.Fatalf("n=%d window [%d,%d) ∪ [%d,%d): index %v, upperMedian %v\nbins %v", len(psd), a, b, c, d, got, want, psd)
	}
}

// checkBandWindows checks every floor window bandFloor cuts from a
// spectrum of len(psd) bins as f0 sweeps it in eighth-bin steps: every
// window shape the rotor scan can ask for.
func checkBandWindows(t *testing.T, ix *floorIndex, psd []float64, work *[]float64) {
	t.Helper()
	var last [4]int
	for j := 1; j <= 8*len(psd); j++ {
		flo, lo, hi, fhi, ok := bandFloor(len(psd), float64(j)/8, 1, DefaultFreqTolFrac)
		if w := [4]int{flo, lo, hi, fhi}; ok && w != last {
			checkFloor(t, ix, psd, flo, lo, hi+1, fhi+1, work)
			last = w
		}
	}
}

// radialSpectrum is the spectrum DetectRecord hands estimateRotorHz:
// the sum of the two radial axes' periodograms.
func radialSpectrum(t *testing.T, raw [3][]int16, scaleG, fs float64) []float64 {
	t.Helper()
	x := transform.CountsToGInto(nil, raw[0], scaleG)
	y := transform.CountsToGInto(nil, raw[1], scaleG)
	_, px, err := dsp.PeriodogramInto(nil, nil, x, fs)
	if err != nil {
		t.Fatal(err)
	}
	_, py, err := dsp.PeriodogramInto(nil, nil, y, fs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range px {
		px[i] += py[i]
	}
	return px
}

// TestFloorIndexMatchesUpperMedian is the rank index's contract: over
// spectra of every length 1–600 mixing ties, ±Inf, NaN, -0/+0, an
// all-zero (dead sensor) spectrum and sorted input, every floor query
// returns the element upperMedian selects. The windows are every
// [a, b) ∪ [c, d) with a ≤ b ≤ c ≤ d up to 20 bins, every window
// bandFloor cuts at any length (of the unsorted spectra), and random
// ones; then every bandFloor window and random ones over the eight
// benchRecords radial spectra. One index is rebuilt throughout, so
// shrinking and growing it is checked too.
func TestFloorIndexMatchesUpperMedian(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	gens := map[string]func(n int) float64{
		"continuous": func(int) float64 { return rng.ExpFloat64() },
		"ties":       func(n int) float64 { return float64(rng.Intn(1 + n/4)) },
		"all-zero":   func(int) float64 { return 0 },
		"specials": func(n int) float64 {
			switch rng.Intn(10) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			case 3:
				return math.Copysign(0, -1)
			case 4:
				return 0
			}
			return float64(rng.Intn(1+n/2)) - float64(n/4)
		},
	}
	var ix floorIndex
	var work []float64
	random := func(psd []float64, count int) {
		n := len(psd)
		for range count {
			w := [4]int{rng.Intn(n + 1), rng.Intn(n + 1), rng.Intn(n + 1), rng.Intn(n + 1)}
			sort.Ints(w[:])
			checkFloor(t, &ix, psd, w[0], w[1], w[2], w[3], &work)
		}
	}
	for n := 1; n <= 600; n++ {
		for name, gen := range gens {
			for _, sorted := range []bool{false, true} {
				psd := make([]float64, n)
				for i := range psd {
					psd[i] = gen(n)
				}
				if sorted {
					sort.Float64s(psd)
				}
				ix.build(psd)
				if n <= 20 {
					for a := 0; a <= n; a++ {
						for b := a; b <= n; b++ {
							for c := b; c <= n; c++ {
								for d := c; d <= n; d++ {
									checkFloor(t, &ix, psd, a, b, c, d, &work)
								}
							}
						}
					}
				}
				if !sorted {
					checkBandWindows(t, &ix, psd, &work)
				}
				random(psd, 32)
				if t.Failed() {
					t.Fatalf("%s (sorted %v)", name, sorted)
				}
			}
		}
	}

	recs, _ := benchRecords(t, 1024)
	for _, rec := range recs {
		psd := radialSpectrum(t, rec.Raw, rec.ScaleG, rec.SampleRateHz)
		ix.build(psd)
		checkBandWindows(t, &ix, psd, &work)
		random(psd, 20000)
	}
}

// FuzzFloorIndex drives the same contract from arbitrary bins: either
// raw float64 bit patterns (every NaN payload, subnormal and infinity)
// or one small integer per byte (long ties), with a fuzzed window.
func FuzzFloorIndex(f *testing.F) {
	f.Add([]byte{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5}, uint16(1), uint16(3), uint16(6), uint16(10), true)
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 0}, uint16(0), uint16(4), uint16(5), uint16(9), true)
	nan := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.NaN()))
	negZero := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Copysign(0, -1)))
	inf := binary.LittleEndian.AppendUint64(nil, math.Float64bits(math.Inf(1)))
	one := binary.LittleEndian.AppendUint64(nil, math.Float64bits(1))
	var seed []byte
	for _, v := range [][]byte{nan, one, negZero, inf, make([]byte, 8), one, nan} {
		seed = append(seed, v...)
	}
	f.Add(seed, uint16(0), uint16(2), uint16(3), uint16(7), false)
	var ix floorIndex
	var work []float64
	f.Fuzz(func(t *testing.T, raw []byte, w0, w1, w2, w3 uint16, ties bool) {
		var psd []float64
		if ties {
			for _, b := range raw {
				psd = append(psd, float64(b%8))
			}
		} else {
			for ; len(raw) >= 8; raw = raw[8:] {
				psd = append(psd, math.Float64frombits(binary.LittleEndian.Uint64(raw)))
			}
		}
		if len(psd) == 0 {
			return
		}
		n := len(psd) + 1
		w := [4]int{int(w0) % n, int(w1) % n, int(w2) % n, int(w3) % n}
		sort.Ints(w[:])
		ix.build(psd)
		checkFloor(t, &ix, psd, w[0], w[1], w[2], w[3], &work)
	})
}
