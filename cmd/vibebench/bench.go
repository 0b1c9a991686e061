package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strings"
	"testing"

	"vibepm"
	"vibepm/internal/dsp"
	"vibepm/internal/experiments"
	"vibepm/internal/feature"
)

// benchResult is one benchmark's snapshot row. The baseline_* fields
// preserve the numbers measured at the seed commit, before the plan
// cache / buffer pooling work, so the committed snapshot documents the
// before/after of the optimization in one place.
type benchResult struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// P99NsPerOp is set by latency-distribution cases (via
	// b.ReportMetric("p99-ns")) and gated like ns/op: tail latency is
	// the contract for cases like ingest-during-compaction, where the
	// mean hides the pauses.
	P99NsPerOp          float64 `json:"p99_ns_per_op,omitempty"`
	BaselineNsPerOp     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocsPerOp int64   `json:"baseline_allocs_per_op,omitempty"`
}

// benchSnapshot is the machine-readable artifact vibebench -benchout
// writes and -benchgate compares against.
type benchSnapshot struct {
	Note       string                 `json:"note"`
	GoVersion  string                 `json:"go_version"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Results    map[string]benchResult `json:"results"`
}

// prePR2Baseline holds the hot-path timings measured at the seed commit
// on the reference machine, before plan caching and pooling landed.
var prePR2Baseline = map[string]benchResult{
	"FFT1024":          {NsPerOp: 19997, AllocsPerOp: 0},
	"FFTBluestein1000": {NsPerOp: 184900, AllocsPerOp: 3},
	"DCT1024":          {NsPerOp: 108185, AllocsPerOp: 2},
	"PSDDCT1024":       {NsPerOp: 106330, AllocsPerOp: 4},
	"Welch16k":         {NsPerOp: 1003968, AllocsPerOp: 97},
	"STFT16k":          {NsPerOp: 1099159, AllocsPerOp: 139},
	"Envelope4096":     {NsPerOp: 258313, AllocsPerOp: 2},
	"HarmonicExtract":  {NsPerOp: 51771, AllocsPerOp: 15},
	"EngineFitSmall":   {NsPerOp: 72790009, AllocsPerOp: 5716},
}

// benchCase is one entry of the regression-gated suite. It mirrors the
// matching go-test benchmark of the hot path, so the snapshot can be
// produced and gated without parsing `go test -bench` text output.
type benchCase struct {
	name string
	run  func(b *testing.B)
}

// volatileBenchCases names the cases whose timing measures the machine
// rather than the code (per-op fsync latency): they run and print, but
// stay out of written snapshots so the CI gate stays portable across
// disks.
var volatileBenchCases = map[string]bool{
	"WALAppendSyncAlways": true,
}

func benchSignal(n int) []float64 {
	rng := rand.New(rand.NewSource(1))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	return x
}

// benchFeaturePSD mirrors the synthetic harmonic-series spectrum of the
// feature package's benchmarks.
func benchFeaturePSD(n int) (freq, psd []float64) {
	rng := rand.New(rand.NewSource(7))
	freq = make([]float64, n)
	psd = make([]float64, n)
	for i := range freq {
		freq[i] = float64(i) * 3200.0 / (2 * float64(n))
	}
	for i := range psd {
		psd[i] = 1e-6 * (1 + 0.3*rng.Float64())
	}
	for h := 1; h <= 12; h++ {
		center := 50 * h * n / 1600
		if center >= n-2 {
			break
		}
		for d := -2; d <= 2; d++ {
			psd[center+d] += 1e-3 / float64(h) * math.Exp(-float64(d*d))
		}
	}
	return freq, psd
}

// benchSuite assembles the hot-path suite. Corpus generation happens
// once, up front, so it is excluded from every timing.
func benchSuite() ([]benchCase, error) {
	corpus, err := experiments.NewCorpus(experiments.Small, 1)
	if err != nil {
		return nil, fmt.Errorf("corpus: %w", err)
	}
	hFreq, hPSD := benchFeaturePSD(1024)
	cases := []benchCase{
		{"FFT1024", func(b *testing.B) {
			x := benchSignal(1024)
			buf := make([]complex128, 1024)
			b.ReportAllocs()
			for b.Loop() {
				for j, v := range x {
					buf[j] = complex(v, 0)
				}
				dsp.FFT(buf)
			}
		}},
		{"FFTBluestein1000", func(b *testing.B) {
			x := benchSignal(1000)
			buf := make([]complex128, 1000)
			b.ReportAllocs()
			for b.Loop() {
				for j, v := range x {
					buf[j] = complex(v, 0)
				}
				dsp.FFT(buf)
			}
		}},
		{"DCT1024", func(b *testing.B) {
			x := benchSignal(1024)
			dst := make([]float64, 1024)
			b.ReportAllocs()
			for b.Loop() {
				dsp.DCTInto(dst, x)
			}
		}},
		{"PSDDCT1024", func(b *testing.B) {
			x := benchSignal(1024)
			dst := make([]float64, 1024)
			b.ReportAllocs()
			for b.Loop() {
				dsp.PSDDCTInto(dst, x)
			}
		}},
		{"Welch16k", func(b *testing.B) {
			x := benchSignal(16384)
			cfg := dsp.WelchConfig{SegmentLength: 1024, Overlap: 0.5}
			freq := make([]float64, 1024/2+1)
			psd := make([]float64, 1024/2+1)
			b.ReportAllocs()
			for b.Loop() {
				if err := dsp.WelchInto(freq, psd, x, 1000, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"STFT16k", func(b *testing.B) {
			x := benchSignal(16384)
			cfg := dsp.STFTConfig{FrameLength: 1024, HopLength: 512}
			var sg dsp.Spectrogram
			b.ReportAllocs()
			for b.Loop() {
				if err := dsp.STFTInto(&sg, x, 1000, cfg); err != nil {
					b.Fatal(err)
				}
			}
		}},
		{"Envelope4096", func(b *testing.B) {
			x := benchSignal(4096)
			dst := make([]float64, 4096)
			b.ReportAllocs()
			for b.Loop() {
				dsp.EnvelopeInto(dst, x)
			}
		}},
		{"HarmonicExtract", func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				feature.ExtractHarmonic(hFreq, hPSD, feature.Options{})
			}
		}},
		{"EngineFitSmall", func(b *testing.B) {
			ds := corpus.Dataset
			b.ReportAllocs()
			for b.Loop() {
				eng := vibepm.NewWithStores(vibepm.Options{}, ds.Measurements, ds.Labels)
				if err := eng.Fit(); err != nil {
					b.Fatal(err)
				}
			}
		}},
	}
	cases = append(cases, benchSuitePR4()...)
	cases = append(cases, benchSuitePR5()...)
	pr6, err := benchSuitePR6()
	if err != nil {
		return nil, err
	}
	cases = append(cases, pr6...)
	cases = append(cases, benchSuitePR7()...)
	pr8, err := benchSuitePR8()
	if err != nil {
		return nil, err
	}
	cases = append(cases, pr8...)
	pr9, err := benchSuitePR9()
	if err != nil {
		return nil, err
	}
	cases = append(cases, pr9...)
	pr10, err := benchSuitePR10()
	if err != nil {
		return nil, err
	}
	return append(cases, pr10...), nil
}

// baselineFor looks a case up across the per-PR baseline maps.
func baselineFor(name string) (benchResult, bool) {
	if base, ok := prePR2Baseline[name]; ok {
		return base, true
	}
	if base, ok := prePR4Baseline[name]; ok {
		return base, true
	}
	if base, ok := prePR6Baseline[name]; ok {
		return base, true
	}
	if base, ok := prePR9Baseline[name]; ok {
		return base, true
	}
	if base, ok := prePR14Baseline[name]; ok {
		return base, true
	}
	return benchResult{}, false
}

// runBenchSuite executes every case via testing.Benchmark and collects
// the snapshot, printing progress as it goes. The second return lists
// the volatile case names, for exclusion from written snapshots.
func runBenchSuite() (*benchSnapshot, []string, error) {
	suite, err := benchSuite()
	if err != nil {
		return nil, nil, err
	}
	var volatile []string
	snap := &benchSnapshot{
		Note:       "hot-path benchmark snapshot; regenerate with `make bench-snapshot`, gate with `make bench-check`",
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Results:    make(map[string]benchResult, len(suite)),
	}
	nsPerOp := func(r testing.BenchmarkResult) float64 {
		return float64(r.T.Nanoseconds()) / float64(r.N)
	}
	// Two full passes over the suite, keeping each case's faster run:
	// the gate compares point estimates, and on shared/virtualized
	// hardware the host CPU oscillates between fast and slow phases
	// lasting seconds to minutes. Back-to-back repeats of one case land
	// in the same phase, so the second sample is taken a full suite
	// pass later — minutes apart — and the per-case minimum estimates
	// the code's cost rather than the machine's mood, on both sides of
	// the comparison.
	best := make([]testing.BenchmarkResult, len(suite))
	for pass := 0; pass < 2; pass++ {
		for i, c := range suite {
			r := testing.Benchmark(c.run)
			if pass == 0 || nsPerOp(r) < nsPerOp(best[i]) {
				best[i] = r
			}
		}
	}
	for i, c := range suite {
		r := best[i]
		res := benchResult{
			NsPerOp:     nsPerOp(r),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		}
		if p99, ok := r.Extra["p99-ns"]; ok {
			res.P99NsPerOp = p99
		}
		if base, ok := baselineFor(c.name); ok {
			res.BaselineNsPerOp = base.NsPerOp
			res.BaselineAllocsPerOp = base.AllocsPerOp
		}
		snap.Results[c.name] = res
		if volatileBenchCases[c.name] {
			volatile = append(volatile, c.name)
		}
		fmt.Printf("%-20s %12.0f ns/op %8d B/op %6d allocs/op", c.name, res.NsPerOp, res.BytesPerOp, res.AllocsPerOp)
		if res.P99NsPerOp > 0 {
			fmt.Printf("   p99 %.0f ns", res.P99NsPerOp)
		}
		if res.BaselineNsPerOp > 0 && res.NsPerOp > 0 {
			fmt.Printf("   (%.2fx vs pre-optimization)", res.BaselineNsPerOp/res.NsPerOp)
		}
		fmt.Println()
	}
	return snap, volatile, nil
}

// gateDiff is one gate violation with everything a CI log needs to
// debug the regression without rerunning: the case, the metric, the
// committed (seed) value, the value just measured, and their ratio.
type gateDiff struct {
	name     string
	metric   string
	seed     float64
	measured float64
	allowed  float64
}

func (d gateDiff) String() string {
	if d.seed == 0 {
		return fmt.Sprintf("  %-24s %s", d.name, d.metric)
	}
	return fmt.Sprintf("  %-24s %-9s seed %14.0f  measured %14.0f  ratio %.2fx (allowed %.2fx)",
		d.name, d.metric, d.seed, d.measured, d.measured/d.seed, d.allowed/d.seed)
}

// gateSnapshot compares a fresh run against the committed snapshot.
// A case slower than (1+tol)× the committed time, allocating beyond the
// committed count (with a small slack for pool refills), or missing
// entirely fails the gate; the returned error carries a per-case diff
// (name, seed value, measured value, ratio) so the regression is
// debuggable from the gate output alone. Improvements beyond tol are
// reported as a hint to refresh the snapshot but do not fail.
func gateSnapshot(current, committed *benchSnapshot, tol float64) error {
	names := make([]string, 0, len(committed.Results))
	for name := range committed.Results {
		names = append(names, name)
	}
	sort.Strings(names)
	var diffs []gateDiff
	for _, name := range names {
		com := committed.Results[name]
		cur, ok := current.Results[name]
		if !ok {
			diffs = append(diffs, gateDiff{name: name, metric: "missing from current suite"})
			continue
		}
		nsAllowed := com.NsPerOp * (1 + tol)
		switch {
		case cur.NsPerOp > nsAllowed:
			diffs = append(diffs, gateDiff{
				name: name, metric: "ns/op",
				seed: com.NsPerOp, measured: cur.NsPerOp, allowed: nsAllowed,
			})
		case cur.NsPerOp < com.NsPerOp*(1-tol):
			fmt.Printf("GATE NOTE %-20s %.0f ns/op vs committed %.0f — faster by more than %.0f%%; refresh the snapshot\n",
				name, cur.NsPerOp, com.NsPerOp, 100*tol)
		}
		if com.P99NsPerOp > 0 {
			p99Allowed := com.P99NsPerOp * (1 + tol)
			if cur.P99NsPerOp > p99Allowed {
				diffs = append(diffs, gateDiff{
					name: name, metric: "p99-ns",
					seed: com.P99NsPerOp, measured: cur.P99NsPerOp, allowed: p99Allowed,
				})
			}
		}
		allowed := int64(float64(com.AllocsPerOp)*(1+tol)) + 2
		if cur.AllocsPerOp > allowed {
			diffs = append(diffs, gateDiff{
				name: name, metric: "allocs/op",
				seed: float64(com.AllocsPerOp), measured: float64(cur.AllocsPerOp), allowed: float64(allowed),
			})
		}
	}
	if len(diffs) > 0 {
		var b strings.Builder
		fmt.Fprintf(&b, "benchmark gate: %d case(s) beyond ±%.0f%% tolerance:\n", len(diffs), 100*tol)
		for _, d := range diffs {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		return fmt.Errorf("%s", strings.TrimRight(b.String(), "\n"))
	}
	return nil
}

// runBenchCommand implements the -bench / -benchout / -benchgate flags
// and returns the process exit code. gatePaths may name several
// committed snapshots, comma-separated; the suite runs once and is
// compared against each, so stacked per-PR snapshots share one
// measurement.
func runBenchCommand(outPath, gatePaths string, tol float64) int {
	snap, volatile, err := runBenchSuite()
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	if outPath != "" {
		// Strip volatile cases (per-op fsync latency) from the written
		// snapshot: gating them would gate the disk, not the code.
		out := *snap
		out.Results = make(map[string]benchResult, len(snap.Results))
		for name, res := range snap.Results {
			out.Results[name] = res
		}
		for _, name := range volatile {
			delete(out.Results, name)
		}
		data, err := json.MarshalIndent(&out, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: marshal: %v\n", err)
			return 1
		}
		if err := os.WriteFile(outPath, append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "bench: write %s: %v\n", outPath, err)
			return 1
		}
		fmt.Printf("snapshot written to %s\n", outPath)
	}
	for _, gatePath := range strings.Split(gatePaths, ",") {
		gatePath = strings.TrimSpace(gatePath)
		if gatePath == "" {
			continue
		}
		data, err := os.ReadFile(gatePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: read committed snapshot: %v\n", err)
			return 1
		}
		var committed benchSnapshot
		if err := json.Unmarshal(data, &committed); err != nil {
			fmt.Fprintf(os.Stderr, "bench: parse %s: %v\n", gatePath, err)
			return 1
		}
		if err := gateSnapshot(snap, &committed, tol); err != nil {
			fmt.Fprintf(os.Stderr, "bench gate vs %s:\n%v\n", gatePath, err)
			return 1
		}
		fmt.Printf("benchmark gate passed (±%.0f%% vs %s)\n", 100*tol, gatePath)
	}
	return 0
}
