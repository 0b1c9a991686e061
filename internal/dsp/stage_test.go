package dsp

import (
	"encoding/binary"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// The fused radix-4 stage has two implementations, the AVX2 kernel and
// fusedStageGo, and one set of bits: every product is rounded before
// its add in both. These proofs compare them bitwise, with any NaN
// equal to any NaN (an operand order that commutes an add may carry the
// other operand's payload).

// specialLanes are the values a stage must carry through as the Go
// loop does: signed zeros, subnormals, infinities, NaN and the extremes.
var specialLanes = []float64{
	0, math.Copysign(0, -1),
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x0008000000000001),
	math.Inf(1), math.Inf(-1), math.NaN(),
	math.MaxFloat64, -math.MaxFloat64,
}

// fusedHalves lists the quarter-size h of every fusedStage call
// butterflies makes at length n.
func fusedHalves(n int) []int {
	size := 8
	if bits.TrailingZeros(uint(n))&1 == 1 {
		size = 4
	}
	var hs []int
	for ; size <= n/2; size <<= 2 {
		hs = append(hs, size>>1)
	}
	return hs
}

// stageTwiddles returns the (t1, t2) slices butterflies passes the
// stage of quarter-size h.
func stageTwiddles(n, h int, inverse bool) (t1, t2 []complex128, si float64) {
	p := planFFT(n)
	tw, si := p.fwd, -1.0
	if inverse {
		tw, si = p.inv, 1.0
	}
	return tw[h-1 : 2*h-1 : 2*h-1], tw[2*h-1 : 3*h-1 : 3*h-1], si
}

// sameBits reports whether a and b are the same float64, any NaN equal
// to any NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// checkStagesAgree runs one stage of quarter-size h over x with both
// kernels and fails on the first component whose bits differ.
func checkStagesAgree(t *testing.T, name string, x []complex128, h int, inverse bool) {
	t.Helper()
	t1, t2, si := stageTwiddles(len(x), h, inverse)
	want := append([]complex128(nil), x...)
	got := append([]complex128(nil), x...)
	fusedStageGo(want, t1, t2, si)
	fusedStageAsm(got, t1, t2, si)
	for i := range want {
		if !sameBits(real(got[i]), real(want[i])) || !sameBits(imag(got[i]), imag(want[i])) {
			t.Fatalf("%s h=%d inverse=%v: x[%d] = %v (in %v), Go stage %v",
				name, h, inverse, i, got[i], x[i], want[i])
		}
	}
}

func skipWithoutAsmStage(t *testing.T) {
	t.Helper()
	if fusedStageAsm == nil {
		t.Skipf("no assembly stage for GOARCH=%s on this CPU (it needs amd64 with AVX2 and OS-saved YMM state): butterflies run fusedStageGo", runtime.GOARCH)
	}
}

func TestFusedStageKernelsAgree(t *testing.T) {
	skipWithoutAsmStage(t)
	rng := rand.New(rand.NewSource(46))
	for n := 8; n <= 1<<16; n <<= 1 {
		for _, inverse := range []bool{false, true} {
			for _, h := range fusedHalves(n) {
				x := make([]complex128, n)
				for i := range x {
					x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
				}
				checkStagesAgree(t, "n="+strconv.Itoa(n)+" random", x, h, inverse)
				// One lane in eight special, each value in every lane
				// position of the YMM pair (re/im, k even/odd) as n grows.
				for i := range x {
					if rng.Intn(8) == 0 {
						x[i] = complex(specialLanes[rng.Intn(len(specialLanes))], imag(x[i]))
					}
					if rng.Intn(8) == 0 {
						x[i] = complex(real(x[i]), specialLanes[rng.Intn(len(specialLanes))])
					}
				}
				checkStagesAgree(t, "n="+strconv.Itoa(n)+" special", x, h, inverse)
				// Subnormal-scale inputs, whose products underflow.
				for i := range x {
					x[i] = complex(rng.NormFloat64()*1e-300, rng.NormFloat64()*1e-300)
				}
				checkStagesAgree(t, "n="+strconv.Itoa(n)+" tiny", x, h, inverse)
			}
		}
	}
}

// FuzzFusedStage runs one stage of a length 8…512 with the fuzzer's
// 8-byte words written over random lanes as raw float64 bits.
func FuzzFusedStage(f *testing.F) {
	f.Add(int64(1), uint8(0), uint8(0), false, []byte{})
	f.Add(int64(2), uint8(6), uint8(3), true, []byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x01\x00\x00\x00\x00\x00\x00\x80"))
	f.Add(int64(3), uint8(3), uint8(1), false, []byte("\x01\x00\x00\x00\x00\x00\xf8\x7f\xff\xff\xff\xff\xff\xff\x0f\x00"))
	f.Fuzz(func(t *testing.T, seed int64, logn, stage uint8, inverse bool, data []byte) {
		skipWithoutAsmStage(t)
		n := 8 << (logn % 7)
		hs := fusedHalves(n)
		h := hs[int(stage)%len(hs)]
		rng := rand.New(rand.NewSource(seed))
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		for ; len(data) >= 8; data = data[8:] {
			v := math.Float64frombits(binary.LittleEndian.Uint64(data))
			if i := rng.Intn(2 * n); i&1 == 0 {
				x[i/2] = complex(v, imag(x[i/2]))
			} else {
				x[i/2] = complex(real(x[i/2]), v)
			}
		}
		checkStagesAgree(t, "n="+strconv.Itoa(n), x, h, inverse)
	})
}
