// Command benchmark is the repo's benchmark: four workloads over the
// real vibed paths, end-to-end numbers from a child vibed process over
// loopback HTTP, and per-layer numbers from an in-process traced run.
// See README.md in this directory.
//
//	go run ./benchmark -list
//	go run ./benchmark -workload ingest_steady -seed 1 -seconds 20 -trace 0
//	go run ./benchmark -workload ingest_steady -trace 1 -out /tmp/bench
//	go run ./benchmark -compare A/results.json B/results.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
)

// buildDir holds everything a run writes when -out is not given: the
// vibed binary, generated corpora, WAL directories, child stderr. It
// sits in the working directory (the checkout) and is git-ignored.
const buildDir = ".bench_build"

// env is what a workload gets to run with.
type env struct {
	ctx     context.Context
	seed    int64
	seconds float64
	trace   bool
	conns   int        // generator connections: nproc
	out     string     // result files, traces, child stderr
	work    string     // scratch: corpora, WAL directories; removed on exit
	bin     string     // built lazily by vibed()
	host    *hostClock // the run's clock, and what the host stole along it
}

// vibed builds the server binary on first use.
func (e *env) vibed() (string, error) {
	if e.bin == "" {
		bin, err := buildVibed(e.ctx, e.work)
		if err != nil {
			return "", err
		}
		e.bin = bin
	}
	return e.bin, nil
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run of one workload produced.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	EndToEnd  map[string]float64
	PerLayer  map[string]float64
	Samples   map[string]int // sample count behind each timing
	Notes     map[string]any // plan hash, tail percentile, phase lengths
	Problems  []string       // every failed output check, in words
}

func newResult() *result {
	return &result{
		Correct:  true,
		EndToEnd: map[string]float64{},
		PerLayer: map[string]float64{},
		Samples:  map[string]int{},
		Notes:    map[string]any{},
	}
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	if len(r.Problems) < 20 {
		r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
	}
}

func main() { os.Exit(run()) }

func run() int {
	var (
		workload = flag.String("workload", "", "workload to run (see -list)")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", 20, "length of the measured window")
		trace    = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		out      = flag.String("out", "", "directory for results.json, trace files and child stderr (default: a temp dir, removed on exit)")
		list     = flag.Bool("list", false, "list workloads and metrics")
		compare  = flag.Bool("compare", false, "compare two results.json files given as arguments")
	)
	flag.Parse()
	if *list {
		printList(os.Stdout)
		return 0
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare A.json B.json")
			return 2
		}
		return runCompare(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].Name == *workload {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "need -workload NAME (see -list) and -seconds > 0\n")
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if err := os.MkdirAll(buildDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	work, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	// Every exit path below returns through here, SIGINT included: the
	// workloads stop their children before returning.
	defer os.RemoveAll(work)
	e := &env{
		ctx: ctx, seed: *seed, seconds: *seconds, trace: *trace != 0,
		conns: runtime.NumCPU(), out: *out, work: work,
	}
	if e.out == "" {
		e.out = filepath.Join(work, "out")
	}
	if err := os.MkdirAll(e.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	e.host = startHostClock()
	res, err := spec.run(e)
	e.host.close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark %s: %v\n", spec.Name, err)
		if errors.Is(err, context.Canceled) {
			return 130
		}
		return 1
	}
	for _, p := range res.Problems {
		fmt.Fprintf(os.Stderr, "check failed: %s\n", p)
	}
	if *out != "" {
		if err := saveResult(e, spec.Name, res); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	printResult(os.Stdout, e, spec.Name, res)
	return 0
}

// reported returns the metric set the run prints: end-to-end without
// tracing, per-layer with it.
func reported(trace bool, res *result) ([]metricSpec, map[string]float64) {
	if trace {
		return perLayer, res.PerLayer
	}
	return endToEnd, res.EndToEnd
}

// printResult writes one line per metric (name, value, unit, sample
// count) and, as the last line, the JSON object the driver reads.
func printResult(w io.Writer, e *env, name string, res *result) {
	specs, values := reported(e.trace, res)
	fmt.Fprintf(w, "%s seed=%d seconds=%g trace=%t failed=%d/%d correct=%t\n",
		name, e.seed, e.seconds, e.trace, res.Failed, res.Attempted, res.Correct)
	keys := make([]string, 0, len(res.Notes))
	for k := range res.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  note %s = %v\n", k, res.Notes[k])
	}
	metrics := map[string]metricValue{}
	for _, m := range specs {
		v := values[m.Name]
		metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
		if _, measured := values[m.Name]; !measured {
			continue // a layer this workload does not exercise: 0 in the JSON, no line here
		}
		if n, ok := res.Samples[m.Name]; ok {
			fmt.Fprintf(w, "  %-34s %14.4f %-6s n=%d\n", m.Name, v, m.Unit, n)
		} else {
			fmt.Fprintf(w, "  %-34s %14.4f %s\n", m.Name, v, m.Unit)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.Correct,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		panic(err) // numbers and strings only
	}
	fmt.Fprintf(w, "%s\n", line)
}

func printList(w io.Writer) {
	fmt.Fprintln(w, "workloads:")
	for _, wl := range workloads {
		fmt.Fprintf(w, "  %-18s %s\n", wl.Name, wl.Why)
	}
	fmt.Fprintln(w, "end-to-end metrics (-trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(w, "  %-18s %-5s better=%-6s bound=%g\n", m.Name, m.Unit, m.Better, m.Bound)
	}
	fmt.Fprintln(w, "per-layer metrics (-trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(w, "  %-34s %s\n", m.Name, m.Unit)
	}
}
