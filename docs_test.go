package vibepm

import (
	"encoding/json"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// The claims ledger: the documents may name a proof or quote a speed
// only when the name resolves and the figure can be traced to a
// committed measurement. Fenced code is skipped; a code span is a name
// or a literal (a flag value, a constant), not a figure.

var (
	proofNameRe = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark)[A-Z][A-Za-z0-9_]*`)
	proofFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)[A-Za-z0-9_]*)\(`)
	durationRe  = regexp.MustCompile(`\b(\d[\d,]*(?:\.\d+)?) ?(ns|µs|us|ms|s)\b`)
	codeSpanRe  = regexp.MustCompile("`([^`]+)`")
	boldRe      = regexp.MustCompile(`\*\*([^*]+)\*\*`)
	numberRe    = regexp.MustCompile(`\d[\d,]*(?:\.\d+)?`)
	expTagRe    = regexp.MustCompile("`-exp ([a-z0-9-]+)`")
	benchSuffix = regexp.MustCompile(`-\d+$`)
)

var unitSeconds = map[string]float64{"ns": 1e-9, "µs": 1e-6, "us": 1e-6, "ms": 1e-3, "s": 1}

// docBlock is a paragraph, a table, a list or a heading: a run of
// non-blank lines outside fenced code.
type docBlock struct {
	line    int    // first line, 1-based
	section string // the heading in force
	text    string
}

func docBlocks(doc string) []docBlock {
	var out []docBlock
	var cur []string
	start, section, fenced := 0, "", false
	flush := func() {
		if len(cur) > 0 {
			out = append(out, docBlock{start, section, strings.Join(cur, "\n")})
			cur = nil
		}
	}
	for i, l := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(strings.TrimSpace(l), "```"):
			flush()
			fenced = !fenced
		case fenced:
		case strings.TrimSpace(l) == "":
			flush()
		case strings.HasPrefix(l, "#"):
			flush()
			section = l
			out = append(out, docBlock{i + 1, section, l})
		default:
			if len(cur) == 0 {
				start = i + 1
			}
			cur = append(cur, l)
		}
	}
	flush()
	return out
}

// duration is a figure as printed: its value and the decimals shown.
type duration struct {
	text     string
	seconds  float64
	unit     string
	decimals int
}

func parseDurations(text string) []duration {
	var out []duration
	for _, m := range durationRe.FindAllStringSubmatch(text, -1) {
		num := strings.ReplaceAll(m[1], ",", "")
		v, err := strconv.ParseFloat(num, 64)
		if err != nil {
			continue
		}
		dec := 0
		if i := strings.IndexByte(num, '.'); i >= 0 {
			dec = len(num) - i - 1
		}
		out = append(out, duration{m[0], v * unitSeconds[m[2]], m[2], dec})
	}
	return out
}

// matches reports whether a source value, in seconds, prints as d.
func (d duration) matches(seconds float64) bool {
	scale := math.Pow(10, float64(d.decimals)) / unitSeconds[d.unit]
	return math.Round(seconds*scale) == math.Round(d.seconds*scale)
}

// docLedger is what the documents may cite.
type docLedger struct {
	proofs map[string]bool                   // Test/Fuzz/Benchmark funcs of _test.go files
	bench  map[string][]float64              // BENCH.txt row (no Benchmark prefix, no -N) → ns/op, p99
	read   func(path string) (string, error) // a repo-relative file
}

// benchRow resolves a span to a BENCH.txt row, or to every sub-row of a
// parent name (`Fold1k` covers `Fold1k/faults` and `/nofaults`).
func (l docLedger) benchRow(span string) ([]float64, bool) {
	name := benchSuffix.ReplaceAllString(strings.TrimPrefix(span, "Benchmark"), "")
	var vals []float64
	found := false
	for row, v := range l.bench {
		if row == name || strings.HasPrefix(row, name+"/") {
			vals, found = append(vals, v...), true
		}
	}
	return vals, found
}

// sourceValues resolves a code span as a citation: a BENCH.txt row, a
// committed docs/results file or benchmark/ANCHOR.json. It returns the
// durations, in seconds, that source records.
func (l docLedger) sourceValues(span string) ([]float64, bool) {
	if vals, ok := l.benchRow(span); ok {
		return vals, true
	}
	path, _, _ := strings.Cut(span, ":")
	switch {
	case path == "benchmark/ANCHOR.json":
		text, err := l.read(path)
		if err != nil {
			return nil, false
		}
		var v any
		if json.Unmarshal([]byte(text), &v) != nil {
			return nil, false
		}
		return anchorDurations(v, 0), true
	case strings.HasPrefix(path, "docs/results/"):
		text, err := l.read(path)
		if err != nil {
			return nil, false
		}
		var vals []float64
		for _, d := range parseDurations(text) {
			vals = append(vals, d.seconds)
		}
		return vals, true
	}
	return nil, false
}

// anchorDurations collects, in seconds, every number under a key of
// ANCHOR.json that names a duration metric (op_ms, setup_s, …).
func anchorDurations(v any, unit float64) []float64 {
	var out []float64
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			u := unit
			switch {
			case strings.HasSuffix(k, "_ms"):
				u = 1e-3
			case strings.HasSuffix(k, "_s"):
				u = 1
			}
			out = append(out, anchorDurations(c, u)...)
		}
	case float64:
		if unit != 0 {
			out = append(out, v*unit)
		}
	}
	return out
}

// checkProofNames: every Test…, Fuzz… or Benchmark… a document names is
// a func in some _test.go file.
func (l docLedger) checkProofNames(doc string) []string {
	var bad []string
	for _, b := range docBlocks(doc) {
		for _, id := range proofNameRe.FindAllString(b.text, -1) {
			if !l.proofs[id] {
				bad = append(bad, "line "+strconv.Itoa(b.line)+": "+id+" is no test, fuzz or benchmark func")
			}
		}
	}
	return bad
}

// checkDurations: a block that quotes a duration cites a source, and
// each duration is a value that source records, at its printed
// precision.
func (l docLedger) checkDurations(doc string) []string {
	var bad []string
	for _, b := range docBlocks(doc) {
		durs := parseDurations(codeSpanRe.ReplaceAllString(b.text, " "))
		if len(durs) == 0 {
			continue
		}
		var vals []float64
		cited := false
		for _, m := range codeSpanRe.FindAllStringSubmatch(b.text, -1) {
			if v, ok := l.sourceValues(m[1]); ok {
				vals, cited = append(vals, v...), true
			}
		}
		where := "line " + strconv.Itoa(b.line) + ": "
		if !cited {
			bad = append(bad, where+durs[0].text+" cites no BENCH.txt row, docs/results file or benchmark/ANCHOR.json")
			continue
		}
		for _, d := range durs {
			if !d.matchesAny(vals) {
				bad = append(bad, where+d.text+" is not a value its cited sources record")
			}
		}
	}
	return bad
}

func (d duration) matchesAny(vals []float64) bool {
	for _, v := range vals {
		if d.matches(v) {
			return true
		}
	}
	return false
}

// checkExperiments: in a section tagged `-exp <id>`, each number in
// bold and each duration occurs in docs/results/figures/<id>.txt or
// docs/results/paper-scale.txt.
func (l docLedger) checkExperiments(doc string) []string {
	var bad []string
	for _, b := range docBlocks(doc) {
		tag := expTagRe.FindStringSubmatch(b.section)
		if tag == nil || b.text == b.section {
			continue
		}
		where := "line " + strconv.Itoa(b.line) + ": "
		var files []string
		for _, p := range []string{"docs/results/figures/" + tag[1] + ".txt", "docs/results/paper-scale.txt"} {
			text, err := l.read(p)
			if err != nil {
				bad = append(bad, where+err.Error())
				continue
			}
			files = append(files, strings.ReplaceAll(text, ",", ""))
		}
		for _, m := range boldRe.FindAllStringSubmatch(b.text, -1) {
			for _, num := range numberRe.FindAllString(m[1], -1) {
				num = strings.ReplaceAll(num, ",", "")
				if !containsNumber(files, num) {
					bad = append(bad, where+"bold "+num+" is not in figures/"+tag[1]+".txt or paper-scale.txt")
				}
			}
		}
		var vals []float64
		for _, f := range files {
			for _, d := range parseDurations(f) {
				vals = append(vals, d.seconds)
			}
		}
		for _, d := range parseDurations(codeSpanRe.ReplaceAllString(b.text, " ")) {
			if !d.matchesAny(vals) {
				bad = append(bad, where+d.text+" is not in figures/"+tag[1]+".txt or paper-scale.txt")
			}
		}
	}
	return bad
}

// containsNumber reports whether num occurs in a text as a whole
// number, not as part of a longer one.
func containsNumber(texts []string, num string) bool {
	re := regexp.MustCompile(`(^|[^\d.])` + regexp.QuoteMeta(num) + `($|[^\d]|\.[^\d])`)
	for _, t := range texts {
		if re.MatchString(t) {
			return true
		}
	}
	return false
}

// loadDocLedger reads the module's test funcs, BENCH.txt and files.
func loadDocLedger(t *testing.T) docLedger {
	t.Helper()
	l := docLedger{
		proofs: map[string]bool{},
		bench:  map[string][]float64{},
		read: func(p string) (string, error) {
			b, err := os.ReadFile(filepath.FromSlash(p))
			return string(b), err
		},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, "_test.go") {
			return err
		}
		src, err := os.ReadFile(p)
		for _, m := range proofFuncRe.FindAllStringSubmatch(string(src), -1) {
			l.proofs[m[1]] = true
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	anchor, err := l.read("BENCH.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(anchor, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		name := benchSuffix.ReplaceAllString(strings.TrimPrefix(f[0], "Benchmark"), "")
		for i := 2; i+1 < len(f); i += 2 {
			if f[i+1] == "ns/op" || f[i+1] == "p99-ns" {
				v, err := strconv.ParseFloat(f[i], 64)
				if err != nil {
					t.Fatalf("BENCH.txt: %s: %v", f[0], err)
				}
				l.bench[name] = append(l.bench[name], v*1e-9)
			}
		}
	}
	return l
}

func TestDocsClaimsLedger(t *testing.T) {
	l := loadDocLedger(t)
	for _, name := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"} {
		doc, err := l.read(name)
		if err != nil {
			t.Fatal(err)
		}
		bad := append(l.checkProofNames(doc), l.checkDurations(doc)...)
		if name == "EXPERIMENTS.md" {
			bad = append(bad, l.checkExperiments(doc)...)
		}
		for _, b := range bad {
			t.Errorf("%s %s", name, b)
		}
	}
}

// TestDocsLedgerRules runs each rule on inputs that must pass and on
// inputs that must fail.
func TestDocsLedgerRules(t *testing.T) {
	files := map[string]string{
		"docs/results/paper-scale.txt":        "corpus ready in 27.944s\n(total wall clock 41.23s)\n",
		"docs/results/figures/fig11.txt":      "boundary 0.105\nmean 0.001 0.049 0.177\n(12ms)\n",
		"docs/results/figures/table4.txt":     "savings 91391\n",
		"benchmark/ANCHOR.json":               `{"op_ms": {"median": 2.373}, "peak_rss_mb": {"median": 84.5}}`,
		"docs/results/figures/other-file.txt": "",
	}
	l := docLedger{
		proofs: map[string]bool{"TestKept": true, "FuzzKept": true, "BenchmarkKept": true},
		bench:  map[string][]float64{"Fold1k/faults": {359144e-9}, "LiveTrend": {343984e-9}},
		read: func(p string) (string, error) {
			if s, ok := files[p]; ok {
				return s, nil
			}
			return "", fs.ErrNotExist
		},
	}
	cases := []struct {
		name string
		rule func(string) []string
		doc  string
		fail bool
	}{
		{"proof resolves", l.checkProofNames, "`TestKept`, `FuzzKept` and `BenchmarkKept/sub` hold it.", false},
		{"missing test name", l.checkProofNames, "`TestFaultyPumpZeroSeverityIdentity` holds it.", true},
		{"missing name in a table", l.checkProofNames, "| proof |\n|---|\n| `BenchmarkGone` |", true},
		{"fenced code skipped", l.checkProofNames, "```\ngo test -run TestGone\n```", false},
		{"no duration", l.checkDurations, "A fold is one pass per axis.", false},
		{"uncited duration", l.checkDurations, "A fold costs 359 µs.", true},
		{"uncited duration in a table", l.checkDurations, "| case | cost |\n|---|---|\n| fold | 0.36 ms |", true},
		{"cited row", l.checkDurations, "A fold costs 359 µs (`Fold1k/faults`).", false},
		{"cited row, benchmark prefix", l.checkDurations, "`BenchmarkFold1k` prices it at 0.36 ms.", false},
		{"cited row, other value", l.checkDurations, "A fold costs 256 µs (`Fold1k/faults`).", true},
		{"unknown row", l.checkDurations, "A fold costs 359 µs (`Fold2k`).", true},
		{"cited results file", l.checkDurations, "The run takes 41.2 s, 27.9 s of it the corpus (`docs/results/paper-scale.txt`).", false},
		{"results file, stale value", l.checkDurations, "The run takes 36 s (`docs/results/paper-scale.txt`).", true},
		{"missing results file", l.checkDurations, "The run takes 41 s (`docs/results/gone.txt`).", true},
		{"cited anchor", l.checkDurations, "`op_ms` reads 2.37 ms (`benchmark/ANCHOR.json`).", false},
		{"anchor, not a duration metric", l.checkDurations, "84.5 s (`benchmark/ANCHOR.json`).", true},
		{"code span is a literal", l.checkDurations, "`-fsync-interval 1s` sets the ticker.", false},
		{"separate paragraphs", l.checkDurations, "A fold costs 359 µs.\n\nIt is `Fold1k/faults`.", true},
		{"bold values in their file", l.checkExperiments, "## Fig. 11 (`-exp fig11`)\n\nMean **0.001, 0.049, 0.177**, boundary **0.105**.", false},
		{"bold value absent", l.checkExperiments, "## Fig. 11 (`-exp fig11`)\n\nBoundary at **0.21**.", true},
		{"bold value only a prefix", l.checkExperiments, "## Fig. 11 (`-exp fig11`)\n\nBoundary at **0.10**.", true},
		{"thousands separator", l.checkExperiments, "## Table IV (`-exp table4`)\n\nTotal **US$91,391**.", false},
		{"duration at printed precision", l.checkExperiments, "## Fig. 11 (`-exp fig11`)\n\nIt ran in 12 ms of 41.2 s.", false},
		{"duration absent", l.checkExperiments, "## Fig. 11 (`-exp fig11`)\n\nIt ran in 13 ms.", true},
		{"untagged section", l.checkExperiments, "## Ablations\n\nAccuracy **0.5**.", false},
		{"missing figure file", l.checkExperiments, "## Fig. 99 (`-exp fig99`)\n\n**1**", true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if bad := c.rule(c.doc); (len(bad) > 0) != c.fail {
				t.Errorf("fail = %v, want %v: %q", len(bad) > 0, c.fail, bad)
			}
		})
	}
}
