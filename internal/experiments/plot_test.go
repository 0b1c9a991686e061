package experiments

import (
	"math"
	"strings"
	"testing"
)

func TestPlotBasic(t *testing.T) {
	s := []plotSeries{{
		Name: "line",
		X:    []float64{0, 1, 2, 3},
		Y:    []float64{0, 1, 2, 3},
	}}
	out := plot(s, plotConfig{Height: 10, XLabel: "x", YLabel: "y"})
	if !strings.Contains(out, "*") {
		t.Fatal("no markers plotted")
	}
	if !strings.Contains(out, "legend: * line") {
		t.Fatalf("legend missing:\n%s", out)
	}
	if !strings.Contains(out, "y") || !strings.Contains(out, "(x)") {
		t.Fatal("axis labels missing")
	}
	// 10 plot rows + axis + x labels (+ y label + legend).
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 14 {
		t.Fatalf("line count %d:\n%s", len(lines), out)
	}
	// The diagonal: top-right and bottom-left markers.
	plotRows := lines[1:11]
	if !strings.Contains(plotRows[0], "*") || !strings.Contains(plotRows[9], "*") {
		t.Fatalf("diagonal endpoints missing:\n%s", out)
	}
}

func TestPlotMultipleSeriesMarkers(t *testing.T) {
	s := []plotSeries{
		{Name: "a", X: []float64{0, 1}, Y: []float64{0, 0}},
		{Name: "b", X: []float64{0, 1}, Y: []float64{1, 1}},
	}
	out := plot(s, plotConfig{Height: 5})
	if !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("series markers missing:\n%s", out)
	}
}

func TestPlotLogX(t *testing.T) {
	s := []plotSeries{{X: []float64{10, 100, 1000}, Y: []float64{1, 2, 3}}}
	out := plot(s, plotConfig{Height: 5, LogX: true})
	// Equal log spacing: the three markers land evenly; at least the
	// endpoints must print as the original values.
	if !strings.Contains(out, "10") || !strings.Contains(out, "1000") {
		t.Fatalf("log axis labels missing:\n%s", out)
	}
	// Non-positive x with LogX is skipped, not crashed.
	bad := []plotSeries{{X: []float64{-1, 0}, Y: []float64{1, 2}}}
	if got := plot(bad, plotConfig{LogX: true}); !strings.Contains(got, "no plottable points") {
		t.Fatalf("expected empty-plot notice, got:\n%s", got)
	}
}

func TestPlotHandlesNaNAndInf(t *testing.T) {
	s := []plotSeries{{
		X: []float64{0, 1, 2, math.NaN()},
		Y: []float64{0, math.Inf(1), 1, 2},
	}}
	out := plot(s, plotConfig{Height: 5})
	if strings.Contains(out, "NaN") {
		t.Fatal("NaN leaked into the plot")
	}
}

func TestPlotFixedYRange(t *testing.T) {
	s := []plotSeries{{X: []float64{0, 1}, Y: []float64{0.4, 0.6}}}
	out := plot(s, plotConfig{Height: 5, UnitY: true})
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[0], "       1 |") || !strings.HasPrefix(lines[4], "       0 |") {
		t.Fatalf("unit y range labels missing:\n%s", out)
	}
}

func TestPlotConstantSeries(t *testing.T) {
	s := []plotSeries{{X: []float64{5, 5}, Y: []float64{3, 3}}}
	out := plot(s, plotConfig{Height: 5})
	if !strings.Contains(out, "*") {
		t.Fatal("constant point not plotted")
	}
}
