// Command vibebench regenerates the paper's tables and figures on the
// synthetic testbed and prints them, one experiment per section.
//
// Usage:
//
//	vibebench                 # run everything at medium scale
//	vibebench -exp fig11      # run one experiment
//	vibebench -scale paper    # full-scale (155,520-measurement) run
//	vibebench -seed 7         # change the corpus seed
//	vibebench -list           # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"vibepm/internal/experiments"
)

// experiment is one runnable unit. Those needing the corpus receive it;
// corpus-free experiments ignore it.
type experiment struct {
	id          string
	description string
	needsCorpus bool
	run         func(c *experiments.Corpus, seed int64) (fmt.Stringer, error)
}

// text runs the experiment and renders what vibebench prints for it.
func (e experiment) text(c *experiments.Corpus, seed int64) (string, error) {
	res, err := e.run(c, seed)
	if err != nil {
		return "", err
	}
	text := res.String()
	if c, ok := res.(experiments.Charter); ok {
		text += c.Chart()
	}
	return text, nil
}

// machine stamps a run the way `go test -bench` stamps BENCH.txt:
// platform, toolchain, processor counts, and the CPU model where
// /proc/cpuinfo names one.
func machine() string {
	s := fmt.Sprintf("%s/%s %s NumCPU=%d GOMAXPROCS=%d",
		runtime.GOOS, runtime.GOARCH, runtime.Version(), runtime.NumCPU(), runtime.GOMAXPROCS(0))
	info, _ := os.ReadFile("/proc/cpuinfo") // absent off Linux: no cpu field
	for _, line := range strings.Split(string(info), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return s + " cpu: " + strings.TrimSpace(v)
		}
	}
	return s
}

var catalogue = []experiment{
	{"table1", "Table I: piezo vs MEMS sensor specs + measured noise floors", false,
		func(_ *experiments.Corpus, seed int64) (fmt.Stringer, error) { return experiments.Table1(seed) }},
	{"fig5", "Fig. 5: report-period lower bound vs sampling frequency vs node lifetime", false,
		func(_ *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.Fig5() }},
	{"fig8", "Fig. 8: stable vs drifting sensor offsets + mean shift outlier marking", false,
		func(_ *experiments.Corpus, seed int64) (fmt.Stringer, error) { return experiments.Fig8(seed) }},
	{"fig9", "Fig. 9: peak harmonic distances of zone samples vs the Zone A baseline", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.Fig9(c) }},
	{"fig10", "Fig. 10: per-zone PSD population statistics", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.Fig10(c, 100) }},
	{"fig11", "Fig. 11: P(Da|zone) densities and the BC/D decision boundary", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.Fig11(c) }},
	{"fig12-14", "Fig. 12-14: precision/recall/accuracy vs training-set size, 4 metrics", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.Sweep(c) }},
	{"table3", "Table III: confusion matrices at 15 training samples", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.Table3(c) }},
	{"fig15", "Fig. 15: lifetime models via recursive RANSAC", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.Fig15(c) }},
	{"table4", "Fig. 16 + Table IV: per-pump RUL, events, wasted life, savings", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.Table4(c) }},
	{"headline", "Headline: 1.2x lifetime / ~20% replacement-cost savings", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.Headline(c) }},
	{"ablation-peaks", "Ablation: sensitivity to (n_p, n_h)", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.AblationPeakParams(c) }},
	{"ablation-adaptive", "Ablation: zone-adaptive sampling vs fixed schedule", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) {
			return experiments.AblationAdaptiveSampling(c)
		}},
	{"ablation-trend", "Ablation: recursive-RANSAC RUL vs sequential trend RUL", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.AblationTrendRUL(c) }},
	{"ablation-rms", "Ablation: RMS magnitude feature vs peak harmonic distance", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.AblationRMS(c) }},
	{"ablation-welch", "Ablation: DCT periodogram vs Welch averaged periodogram", true,
		func(c *experiments.Corpus, _ int64) (fmt.Stringer, error) { return experiments.AblationWelch(c) }},
	{"robustness", "Seed sweep: key quantities over 5 independent corpora (small scale)", false,
		func(_ *experiments.Corpus, seed int64) (fmt.Stringer, error) {
			return experiments.Robustness(experiments.Small, []int64{seed, seed + 1, seed + 2, seed + 3, seed + 4})
		}},
}

func main() {
	var (
		expID     = flag.String("exp", "", "run a single experiment id (default: all)")
		scaleName = flag.String("scale", "medium", "corpus scale: small, medium, paper")
		seed      = flag.Int64("seed", 1, "corpus seed")
		list      = flag.Bool("list", false, "list experiment ids and exit")
		outDir    = flag.String("out", "", "also write each experiment's output to <out>/<id>.txt")
	)
	flag.Parse()

	if *list {
		for _, e := range catalogue {
			fmt.Printf("%-18s %s\n", e.id, e.description)
		}
		return
	}
	var scale experiments.Scale
	switch strings.ToLower(*scaleName) {
	case "small":
		scale = experiments.Small
	case "medium":
		scale = experiments.Medium
	case "paper":
		scale = experiments.Paper
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q (small|medium|paper)\n", *scaleName)
		os.Exit(2)
	}

	selected := catalogue
	if *expID != "" {
		selected = nil
		for _, e := range catalogue {
			if e.id == *expID {
				selected = []experiment{e}
			}
		}
		if selected == nil {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; use -list\n", *expID)
			os.Exit(2)
		}
	}

	began := time.Now()
	fmt.Printf("# vibebench -scale %s -seed %d on %s\n", scale, *seed, machine())
	var corpus *experiments.Corpus
	needCorpus := false
	for _, e := range selected {
		needCorpus = needCorpus || e.needsCorpus
	}
	if needCorpus {
		fmt.Printf("generating %s-scale corpus (seed %d)...\n", scale, *seed)
		start := time.Now()
		var err error
		corpus, err = experiments.NewCorpus(scale, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "corpus: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("corpus ready in %s: %d labels, %d trend measurements\n\n",
			time.Since(start).Round(time.Millisecond),
			len(corpus.Dataset.LabelledRecords), corpus.Dataset.Measurements.Len())
	}

	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "mkdir %s: %v\n", *outDir, err)
			os.Exit(1)
		}
	}
	for _, e := range selected {
		fmt.Printf("=== %s — %s ===\n", e.id, e.description)
		start := time.Now()
		text, err := e.text(corpus, *seed)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.id, err)
			os.Exit(1)
		}
		fmt.Print(text)
		if *outDir != "" {
			path := filepath.Join(*outDir, e.id+".txt")
			if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "write %s: %v\n", path, err)
				os.Exit(1)
			}
		}
		fmt.Printf("(%s)\n\n", time.Since(start).Round(time.Millisecond))
	}
	fmt.Printf("(total wall clock %s)\n", time.Since(began).Round(time.Millisecond))
}
