package transform

import (
	"math"
	"math/rand"
	"strconv"
	"testing"

	"vibepm/internal/dsp"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// complexPSDDCT is one axis's DCT power on the complex path, the
// reference dsp.AddAxisPower's real-input transform is bounded against: the demeaned samples in
// Makhoul's even-odd order through the len(x)-point complex dsp.FFT,
// the cos/sin recombination, squared and scaled by 1/(2K).
func complexPSDDCT(x []float64) []float64 {
	n := len(x)
	d := dsp.Demean(x)
	v := make([]complex128, n)
	for i := 0; i < (n+1)/2; i++ {
		v[i] = complex(d[2*i], 0)
	}
	for i := 0; i < n/2; i++ {
		v[n-1-i] = complex(d[2*i+1], 0)
	}
	dsp.FFT(v)
	out := make([]float64, n)
	for k := range out {
		scale := math.Sqrt(2 / float64(n))
		if k == 0 {
			scale = math.Sqrt(1 / float64(n))
		}
		s, c := math.Sincos(math.Pi * float64(k) / (2 * float64(n)))
		coef := (real(v[k])*c + imag(v[k])*s) * scale
		out[k] = coef * coef / (2 * float64(n))
	}
	return out
}

// chainPass is the record spectrum as it was before the fused axis
// pass and the real-input transform, kept as its reference: per axis
// CountsToG, then complexPSDDCT, the bins summed into the combined grid
// with the clip, and the offsets and RMS read from the counts by the
// separate Offsets and RMS.
func chainPass(rec *store.Record) (psd []float64, m Moments) {
	k := rec.Samples()
	psd = make([]float64, k)
	for axis := 0; axis < 3; axis++ {
		s := complexPSDDCT(CountsToG(rec.Raw[axis], rec.ScaleG))
		for i, v := range s[:min(len(s), k)] {
			psd[i] += v
		}
	}
	return psd, Moments{Offsets: Offsets(rec), RMS: RMS(rec)}
}

// powerBound is how far a bin of PSDInto may sit from the reference
// chain's: 1e-12 of the record's total power, the sum of the
// reference's bins.
const powerBound = 1e-12

// checkPass fails t unless PSDInto's spectrum is within powerBound of
// the reference chain's total power per bin, and its moments equal the
// chain's bit for bit.
func checkPass(t *testing.T, name string, rec *store.Record) {
	t.Helper()
	wantPSD, want := chainPass(rec)
	_, psd, got := PSDInto(nil, nil, rec)
	if len(psd) != len(wantPSD) {
		t.Fatalf("%s: %d bins, reference %d", name, len(psd), len(wantPSD))
	}
	var total float64
	for _, v := range wantPSD {
		total += v
	}
	for k := range wantPSD {
		if d := math.Abs(psd[k] - wantPSD[k]); !(d <= powerBound*total) {
			t.Fatalf("%s: bin %d: %v, reference %v (|Δ| %.3g, bound %.3g)", name, k, psd[k], wantPSD[k], d, powerBound*total)
		}
	}
	for axis := range want.Offsets {
		if math.Float64bits(got.Offsets[axis]) != math.Float64bits(want.Offsets[axis]) {
			t.Fatalf("%s: offset %d: %v, Offsets %v", name, axis, got.Offsets[axis], want.Offsets[axis])
		}
	}
	if math.Float64bits(got.RMS) != math.Float64bits(want.RMS) {
		t.Fatalf("%s: RMS %v, RMS(rec) %v", name, got.RMS, want.RMS)
	}
}

func randomCounts(rng *rand.Rand, n int) []int16 {
	c := make([]int16, n)
	for i := range c {
		c[i] = int16(rng.Intn(8001) - 4000 + 2000*(i%3))
	}
	return c
}

// TestAxisPassEqualsChain: the fused pass is the complex chain it
// replaced — its spectrum within powerBound per bin, its offsets and
// RMS bit for bit — at the power-of-two lengths of both stage parities,
// Bluestein lengths of both residues mod 4, an odd length (the complex
// path), the two degenerate lengths, an empty axis, unequal axis
// lengths (a longer one is clipped to the grid) and full-scale counts.
func TestAxisPassEqualsChain(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	record := func(scale float64, x, y, z []int16) *store.Record {
		return &store.Record{SampleRateHz: 1000, ScaleG: scale, Raw: [3][]int16{x, y, z}}
	}
	for _, k := range []int{1024, 512, 1000, 998, 1023, 2, 1} {
		checkPass(t, "K="+strconv.Itoa(k), record(0.0039, randomCounts(rng, k), randomCounts(rng, k), randomCounts(rng, k)))
	}
	checkPass(t, "captured", captureRecord(t, physics.NewPump(physics.PumpConfig{ID: 3, Seed: 4}), 40))
	checkPass(t, "empty axis", record(0.002, randomCounts(rng, 1024), nil, randomCounts(rng, 1024)))
	checkPass(t, "empty first axis", record(0.002, nil, randomCounts(rng, 64), randomCounts(rng, 64)))
	checkPass(t, "unequal axes", record(0.002, randomCounts(rng, 1024), randomCounts(rng, 1000), randomCounts(rng, 1100)))
	checkPass(t, "shorter first axis", record(0.002, randomCounts(rng, 512), randomCounts(rng, 1024), randomCounts(rng, 2048)))
	full := make([]int16, 1024)
	alt := make([]int16, 1024)
	for i := range full {
		full[i] = 32767
		alt[i] = 32767
		if i%2 == 1 {
			alt[i] = -32767
		}
	}
	checkPass(t, "full scale", record(0.0039, full, alt, full))
}

// FuzzAxisPass checks PSDInto against the reference chain, within
// checkPass's bound, on random counts (any int16, drawn from seed),
// lengths to 4096 and scales: x carries n counts, y a prefix of them, z
// more samples than the grid holds. The counts come from a seed rather
// than the input bytes so that minimizing an input does not walk a new
// transform length per step.
func FuzzAxisPass(f *testing.F) {
	f.Add(int64(1), uint16(1024), uint16(1024), uint16(0), 0.0039)
	f.Add(int64(2), uint16(1000), uint16(3), uint16(24), 1e-3)
	f.Add(int64(3), uint16(1), uint16(0), uint16(1), -0.5)
	f.Add(int64(4), uint16(998), uint16(997), uint16(5), 1e25)
	f.Fuzz(func(t *testing.T, seed int64, n, ny, nz uint16, scale float64) {
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale)*32768 > 1e30 {
			t.Skip("a record's full scale is finite and at most 1e30 g (stream.MaxFullScaleG): ingest refuses any other")
		}
		rng := rand.New(rand.NewSource(seed))
		counts := make([]int16, int(n)%4097)
		for i := range counts {
			counts[i] = int16(rng.Uint32())
		}
		rec := &store.Record{SampleRateHz: 1000, ScaleG: scale}
		rec.Raw[0] = counts
		rec.Raw[1] = counts[:int(ny)%(len(counts)+1)]
		rec.Raw[2] = append(append([]int16(nil), counts...), counts[:int(nz)%(len(counts)+1)]...)
		checkPass(t, "fuzz", rec)
	})
}
