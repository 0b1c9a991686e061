package dsp

import "sync"

// Scratch-buffer pools. The spectral hot path (per-measurement DCT
// power, periodograms, envelope demodulation, Welch segments) needs short-lived
// float64 and complex128 work arrays of a handful of recurring lengths.
// Pooling them per exact length keeps steady-state feature extraction
// allocation-free: a Get after warm-up returns a previously released
// buffer and a Put returns the same wrapper object, so neither touches
// the heap.
//
// Buffers are handed out through a small wrapper struct rather than as
// raw slices so the pool round-trip itself does not allocate (a raw
// slice stored in a sync.Pool would be boxed into an interface on every
// Put).

type cbuf struct{ s []complex128 }

type fbuf struct{ s []float64 }

// The pools are keyed by length, which is the client's per-axis sample
// count, so they follow the plan registries' rule: the first
// maxCachedPlans lengths get a pool, and past that a get allocates and
// a put drops the buffer.
var cbufPools, fbufPools planRegistry[int, *sync.Pool]

func newPool(int) *sync.Pool { return new(sync.Pool) }

// getCBuf returns a complex scratch buffer of exactly n elements. The
// contents are unspecified; callers must fully overwrite (or zero) it.
func getCBuf(n int) *cbuf {
	if p, ok := cbufPools.cached(n, newPool); ok {
		if v := p.Get(); v != nil {
			return v.(*cbuf)
		}
	}
	return &cbuf{s: make([]complex128, n)}
}

func putCBuf(b *cbuf) {
	if b == nil || len(b.s) == 0 {
		return
	}
	if p, ok := cbufPools.cached(len(b.s), newPool); ok {
		p.Put(b)
	}
}

// getFBuf returns a float64 scratch buffer of exactly n elements with
// unspecified contents.
func getFBuf(n int) *fbuf {
	if p, ok := fbufPools.cached(n, newPool); ok {
		if v := p.Get(); v != nil {
			return v.(*fbuf)
		}
	}
	return &fbuf{s: make([]float64, n)}
}

func putFBuf(b *fbuf) {
	if b == nil || len(b.s) == 0 {
		return
	}
	if p, ok := fbufPools.cached(len(b.s), newPool); ok {
		p.Put(b)
	}
}
