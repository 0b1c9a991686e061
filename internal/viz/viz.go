// Package viz renders the experiments' figures as plain-text charts, so
// vibebench can show Fig. 5's trade-off curves, Fig. 11's densities, or
// Fig. 15's scatter directly in the terminal without any plotting
// dependency.
package viz

import (
	"fmt"
	"math"
	"strings"
)

// Series is one plotted curve or scatter.
type Series struct {
	// Name labels the series in the legend.
	Name string
	// X and Y are parallel coordinates.
	X, Y []float64
	// Marker is the glyph used for this series ('*' when zero).
	Marker byte
}

// Config controls the canvas.
type Config struct {
	// Width and Height are the plot area size in characters
	// (defaults 72×20).
	Width, Height int
	// XLabel and YLabel annotate the axes.
	XLabel, YLabel string
	// LogX plots the x axis logarithmically (x must be positive).
	LogX bool
	// YMin/YMax override the y range when YFixed is set.
	YFixed     bool
	YMin, YMax float64
}

// defaultMarkers cycles when series do not set their own.
var defaultMarkers = []byte{'*', '+', 'o', 'x', '#', '@'}

// Plot renders the series on a shared canvas with axes, tick labels,
// and a legend.
func Plot(series []Series, cfg Config) string {
	if cfg.Width <= 0 {
		cfg.Width = 72
	}
	if cfg.Height <= 0 {
		cfg.Height = 20
	}
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
	if cfg.YFixed {
		ymin, ymax = cfg.YMin, cfg.YMax
	}
	if xmax == xmin {
		xmax = xmin + 1
	}
	if ymax == ymin {
		ymax = ymin + 1
	}

	grid := make([][]byte, cfg.Height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", cfg.Width))
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
			cx := int((tx(x) - xmin) / (xmax - xmin) * float64(cfg.Width-1))
			cy := int((y - ymin) / (ymax - ymin) * float64(cfg.Height-1))
			if cx < 0 || cx >= cfg.Width || cy < 0 || cy >= cfg.Height {
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
	fmt.Fprintf(&b, "%s +%s\n", strings.Repeat(" ", 8), strings.Repeat("-", cfg.Width))
	lo, hi := xmin, xmax
	if cfg.LogX {
		lo, hi = math.Pow(10, xmin), math.Pow(10, xmax)
	}
	fmt.Fprintf(&b, "%s %-10.4g%s%10.4g", strings.Repeat(" ", 8), lo,
		strings.Repeat(" ", max(1, cfg.Width-20)), hi)
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
