package main

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParse(t *testing.T) {
	const in = `# a comment
goos: linux
goarch: amd64
pkg: vibepm/internal/dsp
cpu: Some CPU @ 2.00GHz
BenchmarkFFT1024         	  100000	      9069.9 ns/op	       0 B/op	       0 allocs/op
BenchmarkDetectRecord/1k/estimated-2 	    4000	    284360 ns/op	     361 B/op	       1 allocs/op
BenchmarkColdCompress16k 	   10000	    143794 ns/op	 227.88 MB/s	       0 B/op	       0 allocs/op
BenchmarkIngestDuringCompaction 	    5000	    213069 ns/op	     32740 p99-ns	   27988 B/op	      24 allocs/op
BenchmarkInterrupted-2
PASS
ok  	vibepm/internal/dsp	1.234s
BenchmarkFFT1024         	  120000	      8000 ns/op	       8 B/op	       1 allocs/op
BenchmarkFFT1024         	  120000	      8500 ns/op	       0 B/op	       0 allocs/op
`
	got, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]map[string]float64{
		// Each metric at its minimum over the three repeats.
		"BenchmarkFFT1024":                     {"ns/op": 8000, "B/op": 0, "allocs/op": 0},
		"BenchmarkDetectRecord/1k/estimated-2": {"ns/op": 284360, "B/op": 361, "allocs/op": 1},
		"BenchmarkColdCompress16k":             {"ns/op": 143794, "MB/s": 227.88, "B/op": 0, "allocs/op": 0},
		"BenchmarkIngestDuringCompaction":      {"ns/op": 213069, "p99-ns": 32740, "B/op": 27988, "allocs/op": 24},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parse:\n got %v\nwant %v", got, want)
	}

	if _, err := parse(strings.NewReader("BenchmarkBad 10 fast ns/op\n")); err == nil {
		t.Fatal("a non-numeric value must be an error, not a skipped row")
	}
}

func TestGate(t *testing.T) {
	anchor := map[string]map[string]float64{
		"BenchmarkA":     {"ns/op": 1000, "allocs/op": 10},
		"BenchmarkZero":  {"ns/op": 1000, "allocs/op": 0},
		"BenchmarkTail":  {"ns/op": 1000, "p99-ns": 100, "allocs/op": 0},
		"BenchmarkSub/x": {"ns/op": 1000, "allocs/op": 0},
	}
	// Every case starts from a run that equals the anchor and changes
	// one row; the expected violations and notes name only that row.
	cases := []struct {
		name       string
		row        string
		change     map[string]float64 // nil deletes the row
		violations []string           // substrings, one per expected violation
		notes      []string
	}{
		{name: "equal", row: "BenchmarkA", change: map[string]float64{"ns/op": 1000, "allocs/op": 10}},
		{name: "ns at bound", row: "BenchmarkA", change: map[string]float64{"ns/op": 1000 * slowRatio, "allocs/op": 10}},
		{name: "ns under bound", row: "BenchmarkA", change: map[string]float64{"ns/op": 1299, "allocs/op": 10}},
		{name: "ns over bound", row: "BenchmarkA", change: map[string]float64{"ns/op": 1301, "allocs/op": 10},
			violations: []string{"BenchmarkA ns/op"}},
		{name: "fast at bound", row: "BenchmarkA", change: map[string]float64{"ns/op": 1000 * fastRatio, "allocs/op": 10}},
		{name: "fast over bound", row: "BenchmarkA", change: map[string]float64{"ns/op": 701, "allocs/op": 10}},
		{name: "fast under bound", row: "BenchmarkA", change: map[string]float64{"ns/op": 699, "allocs/op": 10},
			notes: []string{"BenchmarkA 699 ns/op vs anchor 1000"}},
		// 10 × 1.30 + 2 = 15.
		{name: "allocs at bound", row: "BenchmarkA", change: map[string]float64{"ns/op": 1000, "allocs/op": 15}},
		{name: "allocs under bound", row: "BenchmarkA", change: map[string]float64{"ns/op": 1000, "allocs/op": 14}},
		{name: "allocs over bound", row: "BenchmarkA", change: map[string]float64{"ns/op": 1000, "allocs/op": 16},
			violations: []string{"BenchmarkA allocs/op"}},
		// A zero anchor still has the slack of two.
		{name: "zero allocs at bound", row: "BenchmarkZero", change: map[string]float64{"ns/op": 1000, "allocs/op": 2}},
		{name: "zero allocs over bound", row: "BenchmarkZero", change: map[string]float64{"ns/op": 1000, "allocs/op": 3},
			violations: []string{"BenchmarkZero allocs/op"}},
		{name: "p99 at bound", row: "BenchmarkTail", change: map[string]float64{"ns/op": 1000, "p99-ns": 100 * slowRatio, "allocs/op": 0}},
		{name: "p99 under bound", row: "BenchmarkTail", change: map[string]float64{"ns/op": 1000, "p99-ns": 129, "allocs/op": 0}},
		{name: "p99 over bound", row: "BenchmarkTail", change: map[string]float64{"ns/op": 1000, "p99-ns": 131, "allocs/op": 0},
			violations: []string{"BenchmarkTail p99-ns"}},
		// A p99 on a row whose anchor has none is not gated.
		{name: "p99 unanchored", row: "BenchmarkA", change: map[string]float64{"ns/op": 1000, "p99-ns": 1e9, "allocs/op": 10}},
		{name: "two rules at once", row: "BenchmarkTail", change: map[string]float64{"ns/op": 2000, "p99-ns": 200, "allocs/op": 0},
			violations: []string{"BenchmarkTail ns/op", "BenchmarkTail p99-ns"}},
		{name: "missing", row: "BenchmarkSub/x", change: nil,
			violations: []string{"BenchmarkSub/x missing from the input"}},
		{name: "other GOMAXPROCS is another name", row: "BenchmarkSub/x-2", change: map[string]float64{"ns/op": 5000, "allocs/op": 99},
			notes: []string{"BenchmarkSub/x-2 5000 ns/op, no anchor"}},
		{name: "unanchored", row: "BenchmarkWALAppendSyncAlways", change: map[string]float64{"ns/op": 160237, "allocs/op": 2},
			notes: []string{"BenchmarkWALAppendSyncAlways 160237 ns/op, no anchor"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			measured := map[string]map[string]float64{}
			for name, row := range anchor {
				measured[name] = row
			}
			if c.change == nil {
				delete(measured, c.row)
			} else {
				measured[c.row] = c.change
			}
			violations, notes := gate(anchor, measured)
			expectLines(t, "violations", violations, c.violations)
			expectLines(t, "notes", notes, c.notes)
		})
	}
}

// expectLines checks that got has exactly one line per wanted
// substring, in order, comparing with runs of spaces collapsed.
func expectLines(t *testing.T, what string, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %q, want %d matching %q", what, got, len(want), want)
	}
	for i := range got {
		if line := strings.Join(strings.Fields(got[i]), " "); !strings.Contains(line, want[i]) {
			t.Errorf("%s[%d] = %q, want it to contain %q", what, i, line, want[i])
		}
	}
}

func TestRun(t *testing.T) {
	anchorPath := filepath.Join(t.TempDir(), "BENCH.txt")
	const anchor = "goos: linux\nBenchmarkA \t 1\t 1000 ns/op\t 0 B/op\t 0 allocs/op\n"
	if err := os.WriteFile(anchorPath, []byte(anchor), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	// Two passes: the slow repeat alone would fail, the fast one passes.
	in := "BenchmarkA 10 5000 ns/op 0 B/op 0 allocs/op\nBenchmarkA 10 1100 ns/op 0 B/op 0 allocs/op\n"
	if err := run(anchorPath, strings.NewReader(in), &out); err != nil {
		t.Fatalf("min over repeats should pass: %v", err)
	}
	if !strings.Contains(out.String(), "1 anchored benchmarks within bounds") {
		t.Fatalf("unexpected output %q", out.String())
	}
	err := run(anchorPath, strings.NewReader("BenchmarkA 10 5000 ns/op 0 B/op 0 allocs/op\n"), &out)
	if err == nil || !strings.Contains(err.Error(), "1 violation(s)") {
		t.Fatalf("err = %v, want one violation", err)
	}
	if err := run(anchorPath, strings.NewReader(""), &out); err == nil {
		t.Fatal("empty input must fail: the anchored name is missing")
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("goos: linux\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(empty, strings.NewReader(in), &out); err == nil {
		t.Fatal("an anchor with no rows must fail, not pass vacuously")
	}
	if err := run(filepath.Join(t.TempDir(), "absent"), strings.NewReader(in), &out); err == nil {
		t.Fatal("a missing anchor file must fail")
	}
}
