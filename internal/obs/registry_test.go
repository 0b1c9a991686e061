package obs

import (
	"math"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if r.Counter("requests_total") != c {
		t.Fatal("GetOrCreate returned a different counter for the same name")
	}
	if r.Counter("requests_total", "route", "/x") == c {
		t.Fatal("labelled series must be distinct from the bare series")
	}
	g := r.Gauge("temp")
	g.Set(1.5)
	g.Add(-0.25)
	if g.Value() != 1.25 {
		t.Fatalf("gauge = %g, want 1.25", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d", h.Count())
	}
	if math.Abs(h.Sum()-56.05) > 1e-9 {
		t.Fatalf("sum = %g", h.Sum())
	}
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{
		"# TYPE lat histogram",
		`lat_bucket{le="0.1"} 1`,
		`lat_bucket{le="1"} 3`,
		`lat_bucket{le="10"} 4`,
		`lat_bucket{le="+Inf"} 5`,
		"lat_sum 56.05",
		"lat_count 5",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge must panic")
		}
	}()
	r.Gauge("x")
}

// expositionLine matches one sample line of the Prometheus text format.
var expositionLine = regexp.MustCompile(
	`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// parseExposition validates every line and returns sample name{labels}
// → value.
func parseExposition(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") || strings.HasPrefix(line, "# HELP ") {
			continue
		}
		if !expositionLine.MatchString(line) {
			t.Fatalf("invalid exposition line %q", line)
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

func TestPrometheusExpositionParsesAndSorts(t *testing.T) {
	r := NewRegistry()
	r.Counter("b_total", "route", "/x", "status", "200").Add(3)
	r.Counter("b_total", "route", "/x", "status", "404").Inc()
	r.Gauge("a_gauge").Set(2.5)
	r.Histogram("c_seconds", nil).Observe(0.002)
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	samples := parseExposition(t, text)
	if samples[`b_total{route="/x",status="200"}`] != 3 {
		t.Fatalf("labelled counter missing: %v", samples)
	}
	if samples[`b_total{route="/x",status="404"}`] != 1 {
		t.Fatalf("second labelled series missing: %v", samples)
	}
	if samples["a_gauge"] != 2.5 {
		t.Fatalf("gauge missing: %v", samples)
	}
	if samples["c_seconds_count"] != 1 {
		t.Fatalf("histogram count missing: %v", samples)
	}
	// Families are sorted and each emits exactly one TYPE line.
	aIdx := strings.Index(text, "# TYPE a_gauge")
	bIdx := strings.Index(text, "# TYPE b_total")
	cIdx := strings.Index(text, "# TYPE c_seconds")
	if !(aIdx >= 0 && aIdx < bIdx && bIdx < cIdx) {
		t.Fatalf("families not sorted:\n%s", text)
	}
	if strings.Count(text, "# TYPE b_total") != 1 {
		t.Fatalf("family TYPE line duplicated:\n%s", text)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "path", `a"b\c`+"\n").Inc()
	var out strings.Builder
	if err := r.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `esc_total{path="a\"b\\c\n"} 1`) {
		t.Fatalf("escaping wrong:\n%s", out.String())
	}
}

func TestSnapshotAndTotals(t *testing.T) {
	r := NewRegistry()
	r.Counter("ing_total").Add(7)
	r.Gauge("depth").Set(3)
	r.Counter("ing_total", "kind", "dup").Add(2)
	r.Histogram("lat", nil).Observe(1)
	totals := r.Totals()
	if totals["ing_total"] != 7 || totals["depth"] != 3 {
		t.Fatalf("totals = %v", totals)
	}
	if totals["ing_total{kind=dup}"] != 2 {
		t.Fatalf("labelled total missing: %v", totals)
	}
	for k := range totals {
		if strings.HasPrefix(k, "lat") {
			t.Fatalf("histogram leaked into Totals: %v", totals)
		}
	}
	snap := r.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("snapshot has %d series, want 4", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i].Name < snap[i-1].Name {
			t.Fatal("snapshot not sorted")
		}
	}
}
