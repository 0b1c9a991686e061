// Command benchgate compares `go test -bench -benchmem` output on
// stdin against a pinned anchor file in the same text format and exits
// 1 when an anchored benchmark regressed.
//
//	go test -run '^$' -bench . -benchmem -cpu 1 ./... | benchgate BENCH.txt
//
// A name (the first column, GOMAXPROCS suffix included) that repeats
// in the input counts once, each metric at its minimum over the
// repeats: shared hosts swing between fast and slow phases that last
// minutes, so the Makefile runs the suite in two passes and the lower
// reading estimates the code rather than the host.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
)

// The gate's rules. They are constants, not flags: an anchor is only
// worth pinning if every run is judged against it the same way.
const (
	slowRatio  = 1.30 // ns/op and p99-ns fail past this multiple of the anchor
	fastRatio  = 0.70 // ns/op below this multiple is a note: re-anchor deliberately
	allocRatio = 1.30 // allocs/op fail past this multiple of the anchor...
	allocSlack = 2    // ...plus this many, for pool refills
)

// parse reads benchmark result lines — name, iteration count, then
// value/unit pairs — into name → unit → lowest value, skipping
// everything else (goos/pkg/cpu headers, PASS, ok, comments).
func parse(r io.Reader) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 4 || len(f)%2 != 0 || !strings.HasPrefix(f[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseInt(f[1], 10, 64); err != nil {
			continue
		}
		row := out[f[0]]
		if row == nil {
			row = map[string]float64{}
			out[f[0]] = row
		}
		for i := 2; i < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				return nil, fmt.Errorf("%s: value %q of %s: %w", f[0], f[i], f[i+1], err)
			}
			if prev, seen := row[f[i+1]]; !seen || v < prev {
				row[f[i+1]] = v
			}
		}
	}
	return out, sc.Err()
}

// gate judges measured against anchor and returns the violations and
// the notes, each sorted by name.
func gate(anchor, measured map[string]map[string]float64) (violations, notes []string) {
	for _, name := range sortedNames(anchor) {
		want := anchor[name]
		got, ok := measured[name]
		if !ok {
			violations = append(violations, fmt.Sprintf("%-44s missing from the input", name))
			continue
		}
		exceeded := func(unit string, allowed float64) {
			if got[unit] > allowed {
				violations = append(violations, fmt.Sprintf("%-44s %-9s anchor %14.0f  measured %14.0f  allowed %14.0f",
					name, unit, want[unit], got[unit], allowed))
			}
		}
		exceeded("ns/op", want["ns/op"]*slowRatio)
		if got["ns/op"] < want["ns/op"]*fastRatio {
			notes = append(notes, fmt.Sprintf("%-44s %.0f ns/op vs anchor %.0f: faster than %.2fx; re-anchor the row if the gain is deliberate",
				name, got["ns/op"], want["ns/op"], fastRatio))
		}
		if want["p99-ns"] > 0 {
			exceeded("p99-ns", want["p99-ns"]*slowRatio)
		}
		if allocs, ok := want["allocs/op"]; ok {
			exceeded("allocs/op", float64(int64(allocs*allocRatio)+allocSlack))
		}
	}
	for _, name := range sortedNames(measured) {
		if _, ok := anchor[name]; !ok {
			notes = append(notes, fmt.Sprintf("%-44s %.0f ns/op, no anchor: printed, not gated", name, measured[name]["ns/op"]))
		}
	}
	return violations, notes
}

func sortedNames(m map[string]map[string]float64) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func run(anchorPath string, in io.Reader, out io.Writer) error {
	f, err := os.Open(anchorPath)
	if err != nil {
		return err
	}
	defer f.Close()
	anchor, err := parse(f)
	if err != nil {
		return fmt.Errorf("%s: %w", anchorPath, err)
	}
	if len(anchor) == 0 {
		return fmt.Errorf("%s: no benchmark rows", anchorPath)
	}
	measured, err := parse(in)
	if err != nil {
		return fmt.Errorf("stdin: %w", err)
	}
	violations, notes := gate(anchor, measured)
	for _, n := range notes {
		fmt.Fprintln(out, "note:", n)
	}
	if len(violations) > 0 {
		return fmt.Errorf("%d violation(s) against %s:\n  %s", len(violations), anchorPath, strings.Join(violations, "\n  "))
	}
	fmt.Fprintf(out, "benchgate: %d anchored benchmarks within bounds of %s\n", len(anchor), anchorPath)
	return nil
}

func main() {
	if len(os.Args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: go test -run '^$' -bench . -benchmem ./... | benchgate ANCHOR")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}
