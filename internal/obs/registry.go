// Package obs is the observability substrate of the serving stack: a
// dependency-free metrics registry (counters, gauges, histograms with
// atomic hot paths, snapshot and Prometheus text exposition); logging
// is the standard log/slog. The paper's management server (§II,
// Fig. 1/Fig. 7) is an always-on fab service; its operators need to see
// mote health, ingestion loss, and analysis latency — the signals the
// gateway, engine, restapi, and store layers record here.
//
// Hot-path contract: once a caller holds a *Counter, *Gauge, or
// *Histogram, updating it is a handful of atomic operations — no locks,
// no allocations — so instrumented code stays within the committed
// benchmark gates even when nothing scrapes the registry. Registry
// lookups (GetOrCreate by name+labels) take a mutex and may allocate;
// hold the returned pointer in hot loops.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 metric that can move in both directions. It also
// serves as the float accumulator for monotonic quantities that are not
// integral (e.g. simulated backoff seconds).
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add moves the gauge by d (lock-free CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// DurationBuckets is the default histogram bucketing for operation
// latencies, spanning microsecond DSP kernels to multi-second fleet
// fits. Upper bounds in seconds; +Inf is implicit.
var DurationBuckets = []float64{
	1e-6, 1e-5, 1e-4, 1e-3, 5e-3, 0.01, 0.05, 0.1, 0.5, 1, 5, 10,
}

// StageBuckets resolves the per-record pipeline stages (fold, fault
// classify), which run from tens of microseconds to a few milliseconds
// — inside two decades of DurationBuckets.
var StageBuckets = []float64{
	2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 0.01, 0.05, 0.1, 1,
}

// Histogram is a fixed-bucket distribution metric. Observations are
// three atomic operations; export computes the cumulative counts
// Prometheus expects.
type Histogram struct {
	bounds []float64 // ascending upper bounds; +Inf bucket is counts[len(bounds)]
	counts []atomic.Uint64
	sum    Gauge
	count  atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search without sort.SearchFloat64s to keep this
	// allocation-free and inlinable-ish.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v > h.bounds[mid] {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series: a name, an ordered label list
// (alternating key, value), and exactly one of the three value types.
type metric struct {
	name   string
	labels []string
	kind   kind
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// Registry holds named metrics. GetOrCreate methods are safe for
// concurrent use; the same (name, labels) always returns the same
// metric pointer. A name maps to one kind — registering it as another
// kind panics, since that is a programming error no caller can recover
// from meaningfully.
type Registry struct {
	mu    sync.RWMutex
	byKey map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*metric)}
}

// Default is the process-wide registry the package-level
// instrumentation (engine, store) records into and vibed exposes.
var Default = NewRegistry()

// key serializes a series identity. Labels are kept in caller order —
// callers must pass a fixed order per call site, which instrumented
// code naturally does.
func seriesKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.Grow(len(name) + 16*len(labels))
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l)
	}
	return b.String()
}

// lookup returns the metric for (name, labels), creating it with init
// on first use. Metrics are fully initialized before entering the map,
// so a fast-path RLock read always sees a complete value.
func (r *Registry) lookup(name string, labels []string, k kind, init func(m *metric)) *metric {
	if len(labels)%2 != 0 {
		panic("obs: labels must be alternating key, value pairs")
	}
	key := seriesKey(name, labels)
	r.mu.RLock()
	m, ok := r.byKey[key]
	r.mu.RUnlock()
	if !ok {
		r.mu.Lock()
		if m, ok = r.byKey[key]; !ok {
			m = &metric{name: name, labels: append([]string(nil), labels...), kind: k}
			init(m)
			r.byKey[key] = m
		}
		r.mu.Unlock()
	}
	if m.kind != k {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, m.kind, k))
	}
	return m
}

// Counter returns the counter for (name, labels), creating it on first
// use. labels are alternating key, value pairs.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	return r.lookup(name, labels, kindCounter, func(m *metric) { m.c = &Counter{} }).c
}

// Gauge returns the gauge for (name, labels), creating it on first use.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	return r.lookup(name, labels, kindGauge, func(m *metric) { m.g = &Gauge{} }).g
}

// Histogram returns the histogram for (name, labels), creating it with
// the given bucket upper bounds on first use (nil selects
// DurationBuckets). Buckets are fixed at creation; later calls may pass
// nil.
func (r *Registry) Histogram(name string, buckets []float64, labels ...string) *Histogram {
	return r.lookup(name, labels, kindHistogram, func(m *metric) {
		if buckets == nil {
			buckets = DurationBuckets
		}
		bounds := append([]float64(nil), buckets...)
		sort.Float64s(bounds)
		m.h = &Histogram{bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}).h
}

// Series is one exported metric series in a Snapshot.
type Series struct {
	Name   string
	Labels []string // alternating key, value
	Kind   string   // "counter", "gauge", "histogram"
	// Value holds the counter or gauge value; for histograms it is the
	// observation count, with Sum carrying the value sum.
	Value float64
	Sum   float64
}

// Snapshot returns every registered series, sorted by name then label
// string — a stable order suitable for reports and tests.
func (r *Registry) Snapshot() []Series {
	r.mu.RLock()
	metrics := make([]*metric, 0, len(r.byKey))
	for _, m := range r.byKey {
		metrics = append(metrics, m)
	}
	r.mu.RUnlock()
	sortMetrics(metrics)
	out := make([]Series, 0, len(metrics))
	for _, m := range metrics {
		s := Series{Name: m.name, Labels: m.labels, Kind: m.kind.String()}
		switch m.kind {
		case kindCounter:
			s.Value = float64(m.c.Value())
		case kindGauge:
			s.Value = m.g.Value()
		case kindHistogram:
			s.Value = float64(m.h.Count())
			s.Sum = m.h.Sum()
		}
		out = append(out, s)
	}
	return out
}

// Totals flattens the registry's counters and gauges into a map keyed
// by name (plus a {k=v,...} suffix for labelled series). Histograms are
// excluded — their values are wall-clock timings, which would break
// consumers that need deterministic output (the vibechaos golden
// report).
func (r *Registry) Totals() map[string]float64 {
	out := make(map[string]float64)
	for _, s := range r.Snapshot() {
		if s.Kind == "histogram" {
			continue
		}
		key := s.Name
		if len(s.Labels) > 0 {
			parts := make([]string, 0, len(s.Labels)/2)
			for i := 0; i+1 < len(s.Labels); i += 2 {
				parts = append(parts, s.Labels[i]+"="+s.Labels[i+1])
			}
			key += "{" + strings.Join(parts, ",") + "}"
		}
		out[key] = s.Value
	}
	return out
}

func sortMetrics(ms []*metric) {
	sort.Slice(ms, func(a, b int) bool {
		if ms[a].name != ms[b].name {
			return ms[a].name < ms[b].name
		}
		return strings.Join(ms[a].labels, "\xff") < strings.Join(ms[b].labels, "\xff")
	})
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

func formatLabels(labels []string, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	first := true
	for i := 0; i+1 < len(labels); i += 2 {
		if !first {
			b.WriteByte(',')
		}
		first = false
		fmt.Fprintf(&b, `%s="%s"`, labels[i], escapeLabel(labels[i+1]))
	}
	if extraKey != "" {
		if !first {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabel(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): families sorted by name, one
// # TYPE line per family, histogram buckets cumulative with the
// canonical le labels plus _sum and _count series.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	metrics := make([]*metric, 0, len(r.byKey))
	for _, m := range r.byKey {
		metrics = append(metrics, m)
	}
	r.mu.RUnlock()
	sortMetrics(metrics)
	var b strings.Builder
	lastFamily := ""
	for _, m := range metrics {
		if m.name != lastFamily {
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
			lastFamily = m.name
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, formatLabels(m.labels, "", ""), m.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %s\n", m.name, formatLabels(m.labels, "", ""), formatFloat(m.g.Value()))
		case kindHistogram:
			var cum uint64
			for i, bound := range m.h.bounds {
				cum += m.h.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, formatLabels(m.labels, "le", formatFloat(bound)), cum)
			}
			cum += m.h.counts[len(m.h.bounds)].Load()
			fmt.Fprintf(&b, "%s_bucket%s %d\n", m.name, formatLabels(m.labels, "le", "+Inf"), cum)
			fmt.Fprintf(&b, "%s_sum%s %s\n", m.name, formatLabels(m.labels, "", ""), formatFloat(m.h.Sum()))
			fmt.Fprintf(&b, "%s_count%s %d\n", m.name, formatLabels(m.labels, "", ""), m.h.Count())
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}
