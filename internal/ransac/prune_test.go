package ransac

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"slices"
	"testing"
)

// fullScan is the reference Fit: every hypothesis is scored over every
// point. ties, when non-nil, counts the hypotheses
// that matched the best count and won or lost on RMS alone.
func fullScan(x, y []float64, cfg Config, ties *int) (Line, error) {
	if len(x) != len(y) {
		return Line{}, errors.New("ransac: x/y length mismatch")
	}
	n := len(x)
	if n < 2 {
		return Line{}, ErrTooFewPoints
	}
	if cfg.InlierThreshold <= 0 {
		return Line{}, ErrThreshold
	}
	iters := cfg.Iterations
	if iters <= 0 {
		iters = 500
	}
	minInliers := max(cfg.MinInliers, 2)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var best Line
	bestCount := -1
	bestErr := math.Inf(1)
	for it := 0; it < iters; it++ {
		i := rng.Intn(n)
		j := rng.Intn(n)
		if i == j || x[i] == x[j] {
			continue
		}
		slope := (y[j] - y[i]) / (x[j] - x[i])
		if !slopeOK(slope, cfg) {
			continue
		}
		intercept := y[i] - slope*x[i]
		count := 0
		var sse float64
		for k := 0; k < n; k++ {
			r := y[k] - (slope*x[k] + intercept)
			if math.Abs(r) <= cfg.InlierThreshold {
				count++
				sse += r * r
			}
		}
		if count < minInliers {
			continue
		}
		rms := math.Sqrt(sse / float64(count))
		if count == bestCount && ties != nil {
			*ties++
		}
		if count > bestCount || (count == bestCount && rms < bestErr) {
			bestCount = count
			bestErr = rms
			best = Line{Slope: slope, Intercept: intercept}
		}
	}
	if bestCount < minInliers {
		return Line{}, ErrNoModel
	}
	return refine(x, y, best, cfg)
}

func fullScanFit(x, y []float64, cfg Config) (Line, error) { return fullScan(x, y, cfg, nil) }

// sameLines fails unless the two fits agree bit for bit: the error, and
// every line's slope, intercept, R² and inlier indices.
func sameLines(t testing.TB, what string, got, want []Line, gotErr, wantErr error) {
	t.Helper()
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: err %v, want %v", what, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d lines, want %d", what, len(got), len(want))
	}
	bits := math.Float64bits
	for i := range got {
		g, w := got[i], want[i]
		if bits(g.Slope) != bits(w.Slope) || bits(g.Intercept) != bits(w.Intercept) || bits(g.R2) != bits(w.R2) {
			t.Fatalf("%s: line %d is %v·x%+v (R² %v), want %v·x%+v (R² %v)", what, i, g.Slope, g.Intercept, g.R2, w.Slope, w.Intercept, w.R2)
		}
		if !slices.Equal(g.Inliers, w.Inliers) {
			t.Fatalf("%s: line %d has %d inliers, want %d (or the same count at other indices)", what, i, len(g.Inliers), len(w.Inliers))
		}
	}
}

func sameFit(t testing.TB, what string, x, y []float64, cfg Config) {
	t.Helper()
	got, gotErr := Fit(x, y, cfg)
	want, wantErr := fullScanFit(x, y, cfg)
	sameLines(t, what, []Line{got}, []Line{want}, gotErr, wantErr)
}

func sameRecursive(t testing.TB, what string, x, y []float64, cfg Config, maxModels int) []Line {
	t.Helper()
	got, gotErr := Recursive(x, y, cfg, maxModels)
	want, wantErr := recursive(x, y, cfg, maxModels, fullScanFit)
	sameLines(t, what, got, want, gotErr, wantErr)
	return got
}

// fig15Cloud is the pooled (age, D_a) trend cloud that Fig. 15's
// recursive RANSAC runs over at medium scale, seed 1, dumped by
// testdata/fig15cloud.go: 11,440 points, two float64s each.
func fig15Cloud(t testing.TB) (x, y []float64) {
	t.Helper()
	b, err := os.ReadFile("testdata/fig15-medium.bin")
	if err != nil {
		t.Fatal(err)
	}
	if len(b)%16 != 0 {
		t.Fatalf("fig15-medium.bin: %d bytes is not a whole number of points", len(b))
	}
	for ; len(b) >= 16; b = b[16:] {
		x = append(x, math.Float64frombits(binary.LittleEndian.Uint64(b)))
		y = append(y, math.Float64frombits(binary.LittleEndian.Uint64(b[8:])))
	}
	return x, y
}

// lifetimeConfig is the configuration core.LearnLifetimeModels runs
// Recursive with over n trend points.
func lifetimeConfig(n int) Config {
	return Config{InlierThreshold: 0.03, MinInliers: max(n/10, 20), MinSlope: 1e-5, Iterations: 2000}
}

// TestFitPruningMatchesFullScan: abandoning a hypothesis that can no
// longer win changes no fit — every line and error is the full scan's,
// bit for bit.
func TestFitPruningMatchesFullScan(t *testing.T) {
	t.Run("random clouds", func(t *testing.T) {
		for seed := int64(0); seed < 12; seed++ {
			rng := rand.New(rand.NewSource(seed))
			for _, n := range []int{2, 3, 64, 65, 129, 500, 2000} {
				x, y := noisyLine(rng, 1+rng.Float64(), rng.NormFloat64(), 0.05, 10, n)
				for i := 0; i < n/3; i++ {
					y[rng.Intn(n)] = 10 * rng.Float64()
				}
				for _, cfg := range []Config{
					{InlierThreshold: 0.1, Seed: seed},
					{InlierThreshold: 0.02, MinInliers: n / 2, Iterations: 300, Seed: seed},
					{InlierThreshold: 1, MinInliers: n, Seed: seed},
				} {
					sameFit(t, "random cloud", x, y, cfg)
				}
			}
		}
	})

	t.Run("count ties broken by RMS", func(t *testing.T) {
		// Integer points on a few parallel lines: many hypotheses reach
		// the same count, and only the RMS of their residuals orders them.
		ties := 0
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			x, y := make([]float64, 300), make([]float64, 300)
			for i := range x {
				x[i] = float64(i % 100)
				y[i] = x[i] + float64(3*(i/100)) + float64(rng.Intn(3)-1)*0.25
			}
			cfg := Config{InlierThreshold: 0.3, Iterations: 1000, Seed: seed}
			sameFit(t, "tied counts", x, y, cfg)
			fullScan(x, y, cfg, &ties)
		}
		if ties == 0 {
			t.Fatal("no hypothesis tied the best count: the case tests nothing")
		}
	})

	t.Run("fewer points than one block", func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for n := 2; n < scoreBlock; n += 5 {
			x, y := noisyLine(rng, 2, 1, 0.1, 10, n)
			for _, minInliers := range []int{0, n / 2, n, n + 1} {
				sameFit(t, "short cloud", x, y, Config{InlierThreshold: 0.15, MinInliers: minInliers, Seed: int64(n)})
			}
		}
	})

	t.Run("NaN y", func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		x, y := noisyLine(rng, 1, 0, 0.05, 10, 400)
		for i := 0; i < 40; i++ {
			y[rng.Intn(len(y))] = math.NaN()
		}
		y[0], y[1] = math.Inf(1), math.NaN()
		for seed := int64(0); seed < 6; seed++ {
			sameFit(t, "NaN y", x, y, Config{InlierThreshold: 0.1, Seed: seed})
			sameFit(t, "NaN y, MinSlope", x, y, Config{InlierThreshold: 0.1, MinSlope: 0.5, MinInliers: 50, Seed: seed})
		}
	})

	t.Run("MinSlope on and off", func(t *testing.T) {
		rng := rand.New(rand.NewSource(5))
		x1, y1 := noisyLine(rng, -1, 5, 0.05, 10, 300)
		x2, y2 := noisyLine(rng, 0.5, 0, 0.05, 10, 200)
		x, y := append(x1, x2...), append(y1, y2...)
		for seed := int64(0); seed < 6; seed++ {
			for _, minSlope := range []float64{0, 1e-6, 0.4, 2} {
				sameFit(t, "MinSlope", x, y, Config{InlierThreshold: 0.2, MinSlope: minSlope, MinInliers: 30, Seed: seed})
			}
		}
	})

	t.Run("Recursive over the Fig. 15 cloud", func(t *testing.T) {
		// docs/results/medium-scale.txt's Fig. 15 at 11,440 points:
		// Model I with 8871 inliers, Model II with 2495.
		x, y := fig15Cloud(t)
		models := sameRecursive(t, "Fig. 15 cloud", x, y, lifetimeConfig(len(x)), 0)
		var counts []int
		for _, m := range models {
			counts = append(counts, len(m.Inliers))
		}
		if len(x) != 11440 || !slices.Equal(counts, []int{8871, 2495}) {
			t.Fatalf("%d points, inlier counts %v: the dump is not the medium-scale Fig. 15 cloud", len(x), counts)
		}
	})
}

// FuzzRecursivePruning: over seeded draws from the Fig. 15 cloud, with
// NaNs, the pruned Recursive returns the full scan's lines bit for bit.
func FuzzRecursivePruning(f *testing.F) {
	f.Add(int64(1), uint16(300), uint16(30), uint16(20), uint8(0))
	f.Add(int64(2), uint16(64), uint16(100), uint16(0), uint8(1))
	f.Add(int64(3), uint16(5), uint16(500), uint16(3), uint8(2))
	f.Add(int64(4), uint16(1000), uint16(10), uint16(100), uint8(3))
	cx, cy := fig15Cloud(f)
	f.Fuzz(func(t *testing.T, seed int64, n, thrMilli, minInliers uint16, flags uint8) {
		rng := rand.New(rand.NewSource(seed))
		size := 2 + int(n)%1200
		x, y := make([]float64, size), make([]float64, size)
		for i := range x {
			k := rng.Intn(len(cx))
			x[i], y[i] = cx[k], cy[k]
		}
		if flags&1 != 0 {
			for i := 0; i < size/20; i++ {
				y[rng.Intn(size)] = math.NaN()
			}
		}
		cfg := Config{
			InlierThreshold: float64(thrMilli%1000+1) / 1000,
			MinInliers:      int(minInliers) % (size + 2),
			Iterations:      200,
			Seed:            seed,
		}
		if flags&2 != 0 {
			cfg.MinSlope = 1e-5
		}
		sameRecursive(t, "fuzzed cloud", x, y, cfg, 0)
	})
}

// BenchmarkLifetimeModelsMedium: recursive RANSAC, as the lifetime
// models run it, over the medium-scale Fig. 15 cloud (11,440 points).
func BenchmarkLifetimeModelsMedium(b *testing.B) {
	x, y := fig15Cloud(b)
	cfg := lifetimeConfig(len(x))
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Recursive(x, y, cfg, 0); err != nil {
			b.Fatal(err)
		}
	}
}
