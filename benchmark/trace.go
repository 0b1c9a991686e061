package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer's public function, recorded from
// this package (the program under test carries no tracing of its own
// yet). Spans of one operation share Op; Parent is the span whose work
// this call is part of.
//
// Replay marks a span that was not measured inside its parent's
// interval: the handler under the root span cannot be opened up from
// outside, so the same public call is repeated on a twin node with the
// same input right after, and linked to the root by Parent. Self time
// therefore subtracts child *durations*, not covered intervals.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
	us    map[string][]float64 // duration samples per name, µs
}

func newTracer() *tracer { return &tracer{t0: time.Now(), us: map[string][]float64{}} }

// begin opens a span under parent (0 = a root) and returns its id.
func (t *tracer) begin(name string, parent, op int, replay bool) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: int64(time.Since(t.t0)), Replay: replay,
	})
	return len(t.spans)
}

// end closes span id and adds its duration to the samples of its name.
func (t *tracer) end(id int) {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.t0))
	t.observe(s.Name, float64(s.End-s.Start)/1e3)
}

// span times fn as a child of parent and returns the span's id.
func (t *tracer) span(name string, parent, op int, replay bool, fn func()) int {
	id := t.begin(name, parent, op, replay)
	fn()
	t.end(id)
	return id
}

// observe adds a derived sample (a difference of spans) under name.
func (t *tracer) observe(name string, us float64) { t.us[name] = append(t.us[name], us) }

// durUS is the duration of span id in µs.
func (t *tracer) durUS(id int) float64 {
	s := t.spans[id-1]
	return float64(s.End-s.Start) / 1e3
}

// report stores the median of every sampled name that is a per-layer
// metric, scaled from µs by the metric's unit, with its sample count.
func (t *tracer) report(res *result) {
	for _, m := range perLayer {
		xs, ok := t.us[m.Name]
		if !ok {
			continue
		}
		v := median(xs)
		switch m.Unit {
		case "ms":
			v /= 1e3
		case "s":
			v /= 1e6
		}
		res.PerLayer[m.Name] = v
		res.Samples[m.Name] = len(xs)
	}
}

// unattributed is the share of the named root spans' time that no
// direct child accounts for: 1 − Σ children / Σ roots.
func (t *tracer) unattributed(roots ...string) float64 {
	isRoot := map[string]bool{}
	for _, n := range roots {
		isRoot[n] = true
	}
	counted := map[int]bool{}
	var rootNS, childNS int64
	for _, s := range t.spans {
		if isRoot[s.Name] {
			counted[s.ID] = true
			rootNS += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		if counted[s.Parent] {
			childNS += s.End - s.Start
		}
	}
	return 1 - ratio(float64(childNS), float64(rootNS))
}

func (t *tracer) write(path string) error {
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
