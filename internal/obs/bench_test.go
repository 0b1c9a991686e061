package obs

import (
	"io"
	"testing"
)

// The tentpole's overhead contract: incrementing a held counter is a
// single atomic add — well under 20 ns and allocation-free — so
// instrumenting the hot paths cannot move the rows BENCH.txt anchors.

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total")
	b.ReportAllocs()
	for b.Loop() {
		c.Inc()
	}
}

func BenchmarkGaugeAdd(b *testing.B) {
	g := NewRegistry().Gauge("bench_gauge")
	b.ReportAllocs()
	for b.Loop() {
		g.Add(1.5)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", nil)
	b.ReportAllocs()
	for b.Loop() {
		h.Observe(0.0042)
	}
}

func BenchmarkRegistryLookupBare(b *testing.B) {
	r := NewRegistry()
	r.Counter("bench_total")
	b.ReportAllocs()
	for b.Loop() {
		r.Counter("bench_total").Inc()
	}
}

func BenchmarkWritePrometheus(b *testing.B) {
	r := NewRegistry()
	for i := 0; i < 8; i++ {
		r.Counter("bench_total", "route", string(rune('a'+i))).Add(uint64(i))
		r.Histogram("bench_seconds", nil, "route", string(rune('a'+i))).Observe(0.01)
	}
	b.ReportAllocs()
	for b.Loop() {
		if err := r.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// TestHotPathUpdatesAllocationFree pins the no-allocation half of the
// overhead contract in a plain test so it runs on every `go test`, not
// only when benchmarks are invoked.
func TestHotPathUpdatesAllocationFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("alloc_total")
	g := r.Gauge("alloc_gauge")
	h := r.Histogram("alloc_seconds", nil)
	if n := testing.AllocsPerRun(200, func() { c.Inc() }); n != 0 {
		t.Fatalf("Counter.Inc allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { g.Add(1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %.1f per op", n)
	}
	if n := testing.AllocsPerRun(200, func() { h.Observe(0.01) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f per op", n)
	}
	// The unlabelled fast-path lookup is also allocation-free: the key
	// is the name itself and the read path takes only an RLock.
	if n := testing.AllocsPerRun(200, func() { r.Counter("alloc_total").Inc() }); n != 0 {
		t.Fatalf("bare-name lookup allocates %.1f per op", n)
	}
}
