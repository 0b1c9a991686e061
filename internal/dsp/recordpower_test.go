package dsp

import (
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// RecordPower has two implementations of each of its two wide passes,
// the AVX2 kernels and the Go loops, and one set of bits, which is
// also the bits of three addAxisPower calls into a zeroed spectrum.
// These proofs compare all three bitwise, with any NaN equal to any
// NaN (sameBits).

// recordScales are the count scales the kernel must carry through as
// the per-axis loop does: the codec's float32-decoded MEMS scale and
// the same value not rounded to float32, a power of two, −0, a
// subnormal, the extremes, the infinities and NaN.
var recordScales = []float64{
	float64(float32(0.0039)), 0.0039, 1.0 / 256,
	math.Copysign(0, -1), math.SmallestNonzeroFloat64, 4.9e-320,
	math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// recordLengths are RecordPower's length classes: n ≡ 0 and 2 (mod 4)
// with a power-of-two half (the butterflies) and not (Bluestein), the
// smallest of each, odd lengths (the per-axis loop) and empty.
var recordLengths = []int{0, 1, 2, 3, 4, 6, 7, 8, 10, 12, 14, 16, 18, 20, 34, 64, 96, 127, 256, 998, 1000, 1022, 1024, 2048, 4096}

// limitCounts are the int16 extremes a block may hold.
var limitCounts = []int16{math.MaxInt16, -math.MaxInt16, math.MinInt16}

// recordAxes returns three axes of lengths nx, ny and nz, noisy counts
// with a gravity offset and, one sample in eight, an int16 extreme.
func recordAxes(rng *rand.Rand, nx, ny, nz int) *[3][]int16 {
	var axes [3][]int16
	for l, n := range []int{nx, ny, nz} {
		axes[l] = randomCounts(rng, n)
		for i := range axes[l] {
			if rng.Intn(8) == 0 {
				axes[l][i] = limitCounts[rng.Intn(len(limitCounts))]
			}
		}
	}
	return &axes
}

// perAxisPower is RecordPower by its definition: a zeroed spectrum as
// long as the longest axis, then addAxisPower of each axis in order.
func perAxisPower(axes *[3][]int16, scale float64) (psd []float64, mean, sumSq [3]float64) {
	psd = make([]float64, max(len(axes[0]), len(axes[1]), len(axes[2])))
	for l, counts := range axes {
		mean[l], sumSq[l] = addAxisPower(psd, counts, scale)
	}
	return psd, mean, sumSq
}

// withGoPasses runs f with RecordPower on its Go passes.
func withGoPasses(f func()) {
	demean, power := recordDemeanAsm, recordPowerAsm
	recordDemeanAsm, recordPowerAsm = nil, nil
	defer func() { recordDemeanAsm, recordPowerAsm = demean, power }()
	f()
}

// checkRecordPower fails t unless RecordPower of axes — on the passes
// the CPU runs, and on the Go passes — equals the per-axis composition
// bitwise: every bin, mean and Σ(g−mean)². The spectrum it writes over
// starts as garbage, which the kernel must overwrite.
func checkRecordPower(t *testing.T, name string, axes *[3][]int16, scale float64) {
	t.Helper()
	want, wantMean, wantSq := perAxisPower(axes, scale)
	for _, goPasses := range []bool{false, true} {
		got := make([]float64, len(want))
		for k := range got {
			got[k] = float64(k) - 0.5
		}
		var mean, sumSq [3]float64
		if goPasses {
			withGoPasses(func() { mean, sumSq = RecordPower(got, axes, scale) })
		} else {
			mean, sumSq = RecordPower(got, axes, scale)
		}
		for k := range want {
			if !sameBits(got[k], want[k]) {
				t.Fatalf("%s scale=%g go passes=%v: bin %d = %v, per-axis %v", name, scale, goPasses, k, got[k], want[k])
			}
		}
		for l := range mean {
			if !sameBits(mean[l], wantMean[l]) || !sameBits(sumSq[l], wantSq[l]) {
				t.Fatalf("%s scale=%g go passes=%v: axis %d moments (%v, %v), per-axis (%v, %v)",
					name, scale, goPasses, l, mean[l], sumSq[l], wantMean[l], wantSq[l])
			}
		}
	}
}

// skipWithoutRecordAsm skips where RecordPower runs its Go passes only.
func skipWithoutRecordAsm(t *testing.T) {
	t.Helper()
	if recordDemeanAsm == nil || recordPowerAsm == nil {
		t.Skipf("no assembly record passes for GOARCH=%s on this CPU (they need amd64 with AVX2 and OS-saved YMM state): RecordPower runs demeanScatterGo and recordPowerGo", runtime.GOARCH)
	}
}

// checkDemeanPasses runs both demean passes over the full blocks of
// axes (all of length n) and fails on the first slot or sum whose bits
// differ. Both write over the same garbage, so a slot either leaves
// untouched fails too.
func checkDemeanPasses(t *testing.T, name string, axes *[3][]int16, scale float64, mean [3]float64) {
	t.Helper()
	n := len(axes[0])
	p := planReal(n)
	slot := p.slot[:n/4*2]
	var want, got [3][]complex128
	for l := range want {
		want[l] = make([]complex128, p.m)
		for i := range want[l] {
			want[l][i] = complex(float64(i), -1)
		}
		got[l] = append([]complex128(nil), want[l]...)
	}
	wx, wy, wz := demeanScatterGo(want[0], want[1], want[2], axes[0], axes[1], axes[2], slot, scale, mean[0], mean[1], mean[2])
	gx, gy, gz := recordDemeanAsm(got[0], got[1], got[2], axes[0], axes[1], axes[2], slot, scale, mean[0], mean[1], mean[2])
	for l, w := range [3]float64{wx, wy, wz} {
		if g := [3]float64{gx, gy, gz}[l]; !sameBits(g, w) {
			t.Fatalf("%s scale=%g: axis %d Σ(g−mean)² %v, Go pass %v", name, scale, l, g, w)
		}
		for i := range want[l] {
			if !sameBits(real(got[l][i]), real(want[l][i])) || !sameBits(imag(got[l][i]), imag(want[l][i])) {
				t.Fatalf("%s scale=%g: axis %d slot %d = %v, Go pass %v", name, scale, l, i, got[l][i], want[l][i])
			}
		}
	}
}

// checkPowerPasses runs both power passes over the k range the kernel
// covers at even n, on the transformed pairs z, and fails on the first
// bin whose bits differ.
func checkPowerPasses(t *testing.T, name string, n int, z *[3][]complex128, inv float64) {
	t.Helper()
	p := planReal(n)
	count := ((p.m+1)/2 - 1) &^ 1
	want := make([]float64, n)
	for k := range want {
		want[k] = float64(k) + 0.25
	}
	got := append([]float64(nil), want...)
	p.recordPowerGo(want, z[0], z[1], z[2], inv, 1, 1+count)
	recordPowerAsm(got, z[0], z[1], z[2], p.twiddle, p.rot, inv, count)
	for k := range want {
		if !sameBits(got[k], want[k]) {
			t.Fatalf("%s: bin %d = %v, Go pass %v", name, k, got[k], want[k])
		}
	}
}

// randomPairs returns three m-value slot arrays of standard normal
// pairs, one lane in eight replaced by a specialLanes value when
// special is set.
func randomPairs(rng *rand.Rand, m int, special bool) *[3][]complex128 {
	var z [3][]complex128
	for l := range z {
		z[l] = make([]complex128, m)
		for i := range z[l] {
			re, im := rng.NormFloat64(), rng.NormFloat64()
			if special && rng.Intn(8) == 0 {
				re = specialLanes[rng.Intn(len(specialLanes))]
			}
			if special && rng.Intn(8) == 0 {
				im = specialLanes[rng.Intn(len(specialLanes))]
			}
			z[l][i] = complex(re, im)
		}
	}
	return &z
}

func TestRecordPowerKernelsAgree(t *testing.T) {
	t.Run("per-axis", func(t *testing.T) {
		rng := rand.New(rand.NewSource(47))
		for _, n := range recordLengths {
			name := "n=" + strconv.Itoa(n)
			for _, scale := range recordScales {
				checkRecordPower(t, name, recordAxes(rng, n, n, n), scale)
			}
			// Unequal and empty axes take the per-axis loop.
			checkRecordPower(t, name+" unequal", recordAxes(rng, n, n+2, max(n-1, 0)), adcScale)
			checkRecordPower(t, name+" empty y", recordAxes(rng, n, 0, n), adcScale)
			checkRecordPower(t, name+" empty x", recordAxes(rng, 0, n, n), adcScale)
		}
	})
	t.Run("passes", func(t *testing.T) {
		skipWithoutRecordAsm(t)
		rng := rand.New(rand.NewSource(48))
		for _, n := range recordLengths {
			if n < 2 || n%2 == 1 {
				continue
			}
			name := "n=" + strconv.Itoa(n)
			axes := recordAxes(rng, n, n, n)
			for _, scale := range recordScales {
				mean := [3]float64{Mean(countsG(axes[0], scale)), 0.25, math.Copysign(0, -1)}
				checkDemeanPasses(t, name, axes, scale, mean)
			}
			m := n / 2
			for _, special := range []bool{false, true} {
				checkPowerPasses(t, name, n, randomPairs(rng, m, special), 1/(2*float64(n)))
			}
			tiny := randomPairs(rng, m, false)
			for l := range tiny {
				for i, v := range tiny[l] {
					tiny[l][i] = v * 1e-160 // squares underflow
				}
			}
			checkPowerPasses(t, name+" tiny", n, tiny, 1/(2*float64(n)))
		}
	})
}

// FuzzRecordPower checks RecordPower of three axes of a length to
// 4,096 — equal, or with y and z shortened — at a scale given as raw
// float64 bits, with the fuzzer's bytes written over random samples as
// raw int16 counts, against the per-axis composition on both the CPU's
// passes and the Go ones; where the AVX2 passes run, it also compares
// the demean pass with its Go loop on the record's own counts, and the
// power pass on random slot pairs with special lanes.
func FuzzRecordPower(f *testing.F) {
	f.Add(int64(1), uint16(1024), math.Float64bits(float64(float32(0.0039))), uint8(0), []byte{})
	f.Add(int64(2), uint16(1022), math.Float64bits(math.NaN()), uint8(0), []byte("\xff\x7f\x00\x80\x01\x80"))
	f.Add(int64(3), uint16(999), math.Float64bits(math.Copysign(0, -1)), uint8(3), []byte{})
	f.Add(int64(4), uint16(6), math.Float64bits(math.Inf(-1)), uint8(0), []byte("\x00\x80\x00\x80"))
	f.Add(int64(5), uint16(1000), uint64(1), uint8(1), []byte{})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, scaleBits uint64, shorten uint8, data []byte) {
		size := int(n) % 4097
		scale := math.Float64frombits(scaleBits)
		rng := rand.New(rand.NewSource(seed))
		cut := int(shorten % 4)
		axes := recordAxes(rng, size, max(size-cut, 0), max(size-cut/2, 0))
		for ; len(data) >= 3; data = data[3:] {
			if counts := axes[int(data[2])%3]; len(counts) > 0 {
				counts[rng.Intn(len(counts))] = int16(binary.LittleEndian.Uint16(data))
			}
		}
		checkRecordPower(t, "n="+strconv.Itoa(size), axes, scale)
		if recordDemeanAsm == nil || size < 4 || size%2 == 1 || cut != 0 {
			return
		}
		var mean [3]float64
		for l, counts := range axes {
			mean[l] = Mean(countsG(counts, scale))
		}
		checkDemeanPasses(t, "n="+strconv.Itoa(size), axes, scale, mean)
		checkPowerPasses(t, "n="+strconv.Itoa(size), size, randomPairs(rng, size/2, true), 1/(2*float64(size)))
	})
}
