//go:build !race

// The race detector makes sync.Pool drop a share of what is put back,
// so allocation counts over pooled scratch only hold without it.

package dsp

import "testing"

// TestKernelsDoNotAllocate is the machine-independent half of the
// benchmark gate: the kernels BENCH.txt anchors at 0 allocs/op, on the
// inputs their benchmarks use, must not allocate once their plan and
// scratch are warm. AllocsPerRun rounds down, so a GC emptying a pool
// mid-run does not fail this; an allocation per call does.
func TestKernelsDoNotAllocate(t *testing.T) {
	resetPlanRegistries()
	x1k, x4k, x16k := benchSignal(1024), benchSignal(4096), benchSignal(16384)
	var axes1k [3][]int16
	for l := range axes1k {
		axes1k[l] = make([]int16, 1024)
		for i, v := range x1k {
			axes1k[l][i] = int16(v*4096) + int16(l)
		}
	}
	cbuf := make([]complex128, 1024)
	dst1k, dst4k := make([]float64, 1024), make([]float64, 4096)
	freq, psd := make([]float64, 1024/2+1), make([]float64, 1024/2+1)
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"FFT", func() {
			for j, v := range x1k {
				cbuf[j] = complex(v, 0)
			}
			FFT(cbuf)
		}},
		{"FFT (Bluestein)", func() {
			for j, v := range x1k[:1000] {
				cbuf[j] = complex(v, 0)
			}
			FFT(cbuf[:1000])
		}},
		{"RecordPower", func() { RecordPower(dst1k, &axes1k, 0.0039) }},
		{"WelchInto", func() {
			if err := WelchInto(freq, psd, x16k, 1000, 1024); err != nil {
				t.Fatal(err)
			}
		}},
		{"EnvelopeInto", func() { EnvelopeInto(dst4k, x4k) }},
	} {
		k.run()
		if n := testing.AllocsPerRun(100, k.run); n != 0 {
			t.Errorf("%s: %.0f allocs/op, BENCH.txt anchors 0", k.name, n)
		}
	}
}

// TestCachedScratchStaysFreeAfterCap: once a client has walked the
// scratch pools past their cap, a length cached before it still
// round-trips without allocating.
func TestCachedScratchStaysFreeAfterCap(t *testing.T) {
	resetPlanRegistries()
	t.Cleanup(resetPlanRegistries)
	putFBuf(getFBuf(1024))
	putCBuf(getCBuf(1024))
	for n := 1; n <= 4*maxCachedPlans; n++ {
		putFBuf(getFBuf(n))
		putCBuf(getCBuf(n))
	}
	if n := testing.AllocsPerRun(100, func() {
		putFBuf(getFBuf(1024))
		putCBuf(getCBuf(1024))
	}); n != 0 {
		t.Errorf("cached length 1024: %.0f allocs/op, want 0", n)
	}
}
