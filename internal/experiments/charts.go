package experiments

import (
	"fmt"
	"math"
	"strings"

	"vibepm/internal/feature"
)

// Charter is implemented by results that can render themselves as a
// plain-text chart (plot, below); vibebench prints the chart after the
// tabular summary, so the figures show in the terminal without any
// plotting dependency.
type Charter interface {
	Chart() string
}

// Chart renders Fig. 5's trade-off curves (log frequency axis, one
// curve per target lifetime).
func (r *Fig5Result) Chart() string {
	series := make([]plotSeries, 0, len(r.Curves))
	for _, c := range r.Curves {
		s := plotSeries{Name: fmt.Sprintf("%g yr", c.TargetYears)}
		for _, p := range c.Points {
			if math.IsInf(p.PeriodHours, 1) {
				continue
			}
			s.X = append(s.X, p.SamplingHz)
			s.Y = append(s.Y, p.PeriodHours)
		}
		series = append(series, s)
	}
	return plot(series, plotConfig{
		Height: 18, LogX: true,
		XLabel: "sampling frequency Hz, log scale",
		YLabel: "report period lower bound (hours)",
	})
}

// Chart renders the unstable sensor's offset traces (the Fig. 8(b)
// panel) as one series per axis.
func (r *Fig8Result) Chart() string {
	axes := []string{"x", "y", "z"}
	series := make([]plotSeries, 3)
	for axis := 0; axis < 3; axis++ {
		s := plotSeries{Name: axes[axis] + "-axis avg"}
		for i, day := range r.Unstable.Days {
			s.X = append(s.X, day)
			s.Y = append(s.Y, r.Unstable.Offsets[i][axis])
		}
		series[axis] = s
	}
	return plot(series, plotConfig{
		Height: 14,
		XLabel: "service days (unstable sensor)",
		YLabel: "average acceleration (g)",
	})
}

// Chart renders the three zone densities over D_a with the decision
// boundary marked (the Fig. 11 panel). Each density is normalized to
// its own mode so the sharp Zone A peak does not flatten the others.
func (r *Fig11Result) Chart() string {
	series := make([]plotSeries, 0, len(r.Densities)+1)
	for _, d := range r.Densities {
		var peak float64
		for _, y := range d.Y {
			if y > peak {
				peak = y
			}
		}
		ys := make([]float64, len(d.Y))
		for i, y := range d.Y {
			if peak > 0 {
				ys[i] = y / peak
			}
		}
		series = append(series, plotSeries{Name: "P(Da|" + d.Zone.String() + ")", X: d.X, Y: ys})
	}
	// Vertical boundary marker.
	marker := plotSeries{Name: fmt.Sprintf("boundary %.3f", r.Boundary), Marker: '|'}
	for i := 0; i <= 12; i++ {
		marker.X = append(marker.X, r.Boundary)
		marker.Y = append(marker.Y, float64(i)/12)
	}
	series = append(series, marker)
	return plot(series, plotConfig{
		Height: 16,
		XLabel: "peak harmonic distance Da",
		YLabel: "density (normalized to each mode)",
	})
}

// Chart renders the Fig. 15 scatter (downsampled) with the fitted
// lifetime-model lines overlaid.
func (r *Fig15Result) Chart() string {
	if len(r.Scatter) == 0 {
		return ""
	}
	scatter := plotSeries{Name: "measurements", Marker: '.'}
	var maxAge float64
	for _, p := range r.Scatter {
		scatter.X = append(scatter.X, p.AgeDays)
		scatter.Y = append(scatter.Y, p.Da)
		if p.AgeDays > maxAge {
			maxAge = p.AgeDays
		}
	}
	series := []plotSeries{scatter}
	for i, m := range r.Models.Models {
		line := plotSeries{Name: fmt.Sprintf("Model %s", roman(i+1)), Marker: defaultLineMarker(i)}
		for step := 0; step <= 40; step++ {
			age := maxAge * float64(step) / 40
			line.X = append(line.X, age)
			line.Y = append(line.Y, m.Eval(age))
		}
		series = append(series, line)
	}
	// Threshold line.
	thr := plotSeries{Name: fmt.Sprintf("threshold %.3f", r.ThresholdDa), Marker: '-'}
	for step := 0; step <= 40; step++ {
		thr.X = append(thr.X, maxAge*float64(step)/40)
		thr.Y = append(thr.Y, r.ThresholdDa)
	}
	series = append(series, thr)
	return plot(series, plotConfig{
		Height: 18,
		XLabel: "equipment age (days)",
		YLabel: "peak harmonic distance Da",
	})
}

func defaultLineMarker(i int) byte {
	markers := []byte{'I', 'H', 'M'}
	return markers[i%len(markers)]
}

// Chart renders the Fig. 14 accuracy curves (one per metric).
func (r *SweepResult) Chart() string {
	series := make([]plotSeries, 0, len(feature.Metrics))
	for _, m := range feature.Metrics {
		s := plotSeries{Name: m.String()}
		for _, n := range r.Sizes {
			if p := r.At(m, n); p != nil {
				s.X = append(s.X, float64(n))
				s.Y = append(s.Y, p.Accuracy)
			}
		}
		series = append(series, s)
	}
	return plot(series, plotConfig{
		Height: 14,
		XLabel: "training samples",
		YLabel: "accuracy",
		UnitY:  true,
	})
}

// fig16Pumps are the pumps whose trajectories the Fig. 16 chart shows:
// a healthy Model I unit, the fast-ageing pump 2, the breakdown pump 7
// (whose trend resets mid-window), and the boundary-crossing pump 11.
var fig16Pumps = []int{0, 2, 7, 11}

// Chart renders selected per-pump D_a trajectories against equipment
// age with the Zone D threshold — the Fig. 16 panels.
func (r *Table4Result) Chart() string {
	if len(r.Trends) == 0 {
		return ""
	}
	var series []plotSeries
	var maxAge float64
	for _, id := range fig16Pumps {
		trend, ok := r.Trends[id]
		if !ok {
			continue
		}
		s := plotSeries{Name: fmt.Sprintf("pump %d", id)}
		for _, p := range trend {
			s.X = append(s.X, p.AgeDays)
			s.Y = append(s.Y, p.Da)
			if p.AgeDays > maxAge {
				maxAge = p.AgeDays
			}
		}
		series = append(series, s)
	}
	if len(series) == 0 {
		return ""
	}
	thr := plotSeries{Name: fmt.Sprintf("threshold %.3f", r.Threshold), Marker: '-'}
	for step := 0; step <= 40; step++ {
		thr.X = append(thr.X, maxAge*float64(step)/40)
		thr.Y = append(thr.Y, r.Threshold)
	}
	series = append(series, thr)
	return plot(series, plotConfig{
		Height: 16,
		XLabel: "equipment age (days)",
		YLabel: "peak harmonic distance Da",
	})
}

// plotWidth is the plot area's width in characters.
const plotWidth = 70

// plotSeries is one plotted curve or scatter.
type plotSeries struct {
	// Name labels the series in the legend.
	Name string
	// X and Y are parallel coordinates.
	X, Y []float64
	// Marker is the glyph used for this series (the next of
	// defaultMarkers when zero).
	Marker byte
}

// plotConfig sets the canvas.
type plotConfig struct {
	// Height is the plot area's height in rows.
	Height int
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
	// LogX plots the x axis logarithmically (x must be positive).
	LogX bool
	// UnitY pins the y axis to [0, 1] instead of the data's range.
	UnitY bool
}

// defaultMarkers cycles when series do not set their own.
var defaultMarkers = []byte{'*', '+', 'o', 'x', '#', '@'}

// plot renders the series on a shared canvas with axes, tick labels,
// and a legend.
func plot(series []plotSeries, cfg plotConfig) string {
	xmin, xmax := math.Inf(1), math.Inf(-1)
	ymin, ymax := math.Inf(1), math.Inf(-1)
	tx := func(x float64) float64 {
		if cfg.LogX {
			return math.Log10(x)
		}
		return x
	}
	any := false
	for _, s := range series {
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			if cfg.LogX && x <= 0 {
				continue
			}
			any = true
			if tx(x) < xmin {
				xmin = tx(x)
			}
			if tx(x) > xmax {
				xmax = tx(x)
			}
			if y < ymin {
				ymin = y
			}
			if y > ymax {
				ymax = y
			}
		}
	}
	if !any {
		return "(no plottable points)\n"
	}
	if cfg.UnitY {
		ymin, ymax = 0, 1
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, cfg.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", plotWidth))
	}
	for si, s := range series {
		marker := s.Marker
		if marker == 0 {
			marker = defaultMarkers[si%len(defaultMarkers)]
		}
		for i := range s.X {
			x, y := s.X[i], s.Y[i]
			if math.IsNaN(x) || math.IsNaN(y) || math.IsInf(x, 0) || math.IsInf(y, 0) {
				continue
			}
			if cfg.LogX && x <= 0 {
				continue
			}
			cx := int((tx(x) - xmin) / (xmax - xmin) * float64(plotWidth-1))
			cy := int((y - ymin) / (ymax - ymin) * float64(cfg.Height-1))
			if cx < 0 || cx >= plotWidth || cy < 0 || cy >= cfg.Height {
				continue
			}
			grid[cfg.Height-1-cy][cx] = marker
		}
	}

	var b strings.Builder
	if cfg.YLabel != "" {
		fmt.Fprintf(&b, "%s\n", cfg.YLabel)
	}
	for r, row := range grid {
		label := "        "
		switch r {
		case 0:
			label = fmt.Sprintf("%8.3g", ymax)
		case cfg.Height - 1:
			label = fmt.Sprintf("%8.3g", ymin)
		case (cfg.Height - 1) / 2:
			label = fmt.Sprintf("%8.3g", (ymin+ymax)/2)
		}
		fmt.Fprintf(&b, "%s |%s\n", label, string(row))
	}
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", plotWidth))
	lo, hi := xmin, xmax
	if cfg.LogX {
		lo, hi = math.Pow(10, xmin), math.Pow(10, xmax)
	}
	fmt.Fprintf(&b, "%s %-10.4g%s%10.4g", strings.Repeat(" ", 8), lo,
		strings.Repeat(" ", plotWidth-20), hi)
	if cfg.XLabel != "" {
		fmt.Fprintf(&b, "  (%s)", cfg.XLabel)
	}
	b.WriteByte('\n')
	// Legend.
	if len(series) > 1 || (len(series) == 1 && series[0].Name != "") {
		b.WriteString("legend: ")
		for si, s := range series {
			marker := s.Marker
			if marker == 0 {
				marker = defaultMarkers[si%len(defaultMarkers)]
			}
			if si > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%c %s", marker, s.Name)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
