package meanshift

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// referenceCluster is Cluster as it stood before the index: every shift
// scans every point. It is the definition the index must reproduce bit
// for bit, and it counts its shifts.
func referenceCluster(points [][]float64, cfg Config) (*Result, int) {
	n := len(points)
	tol := cfg.Bandwidth * tolFrac
	mergeRadius := cfg.Bandwidth * mergeFrac

	shifts := 0
	modes := make([][]float64, n)
	buf := make([]float64, len(points[0]))
	for i, p := range points {
		mode := append([]float64(nil), p...)
		for iter := 0; iter < maxIter; iter++ {
			shifts++
			shift := shiftMean(points, mode, cfg.Bandwidth, buf)
			if shift == nil {
				break
			}
			d := dist(mode, shift)
			copy(mode, shift)
			if d < tol {
				break
			}
		}
		modes[i] = mode
	}

	res := &Result{}
	labels := make([]int, n)
	for i, m := range modes {
		assigned := -1
		for ci, c := range res.Centers {
			if dist(m, c) < mergeRadius {
				assigned = ci
				break
			}
		}
		if assigned < 0 {
			res.Centers = append(res.Centers, append([]float64(nil), m...))
			res.Sizes = append(res.Sizes, 0)
			assigned = len(res.Centers) - 1
		}
		labels[i] = assigned
		res.Sizes[assigned]++
	}
	res.Labels = labels
	return res, shifts
}

// shiftMean computes the mean of the points within h of center. It
// returns nil when there is none. buf is scratch space of the point
// dimension.
func shiftMean(points [][]float64, center []float64, h float64, buf []float64) []float64 {
	for i := range buf {
		buf[i] = 0
	}
	var mass float64
	for _, p := range points {
		if dist(center, p) > h {
			continue
		}
		for j, v := range p {
			buf[j] += v
		}
		mass++
	}
	if mass == 0 {
		return nil
	}
	out := make([]float64, len(buf))
	for j := range buf {
		out[j] = buf[j] / mass
	}
	return out
}

// requireEqualsReference fails unless Cluster and the reference scan
// agree on every bit of every centre and on every label and size.
func requireEqualsReference(t *testing.T, pts [][]float64, h float64) {
	t.Helper()
	got, err := Cluster(pts, Config{Bandwidth: h})
	if err != nil {
		t.Fatal(err)
	}
	want, _ := referenceCluster(pts, Config{Bandwidth: h})
	if len(got.Centers) != len(want.Centers) {
		t.Fatalf("%d centres, reference has %d", len(got.Centers), len(want.Centers))
	}
	for ci, c := range want.Centers {
		for j, v := range c {
			if g := got.Centers[ci][j]; math.Float64bits(g) != math.Float64bits(v) {
				t.Fatalf("centre %d axis %d = %v (%#x), reference %v (%#x)",
					ci, j, g, math.Float64bits(g), v, math.Float64bits(v))
			}
		}
		if got.Sizes[ci] != want.Sizes[ci] {
			t.Fatalf("size of cluster %d = %d, reference %d", ci, got.Sizes[ci], want.Sizes[ci])
		}
	}
	for i, l := range want.Labels {
		if got.Labels[i] != l {
			t.Fatalf("label of point %d = %d, reference %d", i, got.Labels[i], l)
		}
	}
}

// TestClusterEqualsReference: the index is the scan, not an
// approximation of it.
func TestClusterEqualsReference(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	// u is exact in binary, so with h = 5u the point (3u, 4u) lies at
	// distance exactly h from the origin, and so do the axis points.
	const u = 0.25
	tight := func(n int) [][]float64 {
		return blob(rand.New(rand.NewSource(11)), []float64{0.02, -0.01, 0.98}, 0.004, n)
	}
	fixed := []struct {
		name string
		h    float64
		pts  [][]float64
	}{
		{"n=1", 1, [][]float64{{3, 4}}},
		{"all equal", 0.05, [][]float64{{1, 2, 3}, {1, 2, 3}, {1, 2, 3}, {1, 2, 3}}},
		{"duplicates", 1, [][]float64{{0, 0}, {0.4, 0}, {0, 0}, {0.4, 0}, {0.9, 0.3}, {0.9, 0.3}}},
		{"exactly h from a seed", 5 * u, [][]float64{
			{0, 0}, {3 * u, 4 * u}, {5 * u, 0}, {0, -5 * u}, {-4 * u, 3 * u}, {10 * u, 0}, {6 * u, 8 * u},
		}},
		{"isolated point", 0.05, append(tight(40), []float64{7, 7, 7})},
		{"one far glitch in a tight cluster", 0.05, slices.Insert(tight(120), 60, []float64{0.9, 0.4, 1.6})},
		{"1-d ramp", 1, func() [][]float64 {
			pts := make([][]float64, 200)
			for i := range pts {
				pts[i] = []float64{float64(i) * 0.03}
			}
			return pts
		}()},
		{"NaN coordinate", 1, [][]float64{{0, 0}, {0.5, nan}, {0.2, 0.1}, {3, 3}, {3.1, 3}}},
		{"NaN point first", 1, [][]float64{{nan, nan}, {0, 0}, {0.2, 0.1}}},
		{"+Inf and -Inf", 1, [][]float64{{0, 0}, {inf, 0}, {0.2, 0.1}, {-inf, 0.3}, {inf, 0}, {0.1, inf}}},
		{"only non-finite", 1, [][]float64{{nan}, {inf}, {-inf}, {nan}}},
		{"coordinates beyond the grid", 1e-300, [][]float64{{1e10, 0}, {1e10, 1e-301}, {-1e10, 0}}},
		{"huge coordinates", 1, [][]float64{{1e300, 0}, {1e300, 0.5}, {-1e300, 0}, {math.MaxFloat64, 0}}},
		// The sum of a ball overflows, its mean is +Inf, and the next
		// ball is empty: with every cell outside, and with the cell of
		// the -Inf point straddling.
		{"empty ball", 1, [][]float64{{math.MaxFloat64, 0}, {math.MaxFloat64, 0}}},
		{"empty ball, straddling cell", 1, [][]float64{{math.MaxFloat64}, {math.MaxFloat64}, {-inf}}},
		{"infinite bandwidth", inf, [][]float64{{0, 0}, {5, 5}, {inf, 1}, {nan, 2}}},
		{"signed zeros", 1, [][]float64{{0, 0}, {math.Copysign(0, -1), 0.1}, {-0.1, math.Copysign(0, -1)}}},
	}
	for _, tc := range fixed {
		t.Run(tc.name, func(t *testing.T) { requireEqualsReference(t, tc.pts, tc.h) })
	}

	rng := rand.New(rand.NewSource(22))
	for _, h := range []float64{0.05, 1, 37.5} {
		for _, spread := range []float64{0.01, 0.1, 0.5, 1, 3, 10} {
			for dim := 1; dim <= 4; dim++ {
				t.Run(fmt.Sprintf("random/h=%g/spread=%gh/dim=%d", h, spread, dim), func(t *testing.T) {
					centre := make([]float64, dim)
					for j := range centre {
						centre[j] = rng.NormFloat64() * h * 3
					}
					pts := blob(rng, centre, spread*h, 30+rng.Intn(90))
					// A second regime, some duplicates, and a far glitch.
					for j := range centre {
						centre[j] += 2.5 * h
					}
					pts = append(pts, blob(rng, centre, spread*h, rng.Intn(40))...)
					for k := 0; k < 5; k++ {
						pts = append(pts, pts[rng.Intn(len(pts))])
					}
					glitch := make([]float64, dim)
					glitch[0] = centre[0] + 1000*h
					pts = append(pts, glitch)
					rng.Shuffle(len(pts), func(a, b int) { pts[a], pts[b] = pts[b], pts[a] })
					requireEqualsReference(t, pts, h)
				})
			}
		}
	}
}

// latticeCloud decodes fuzz input into points on a lattice of pitch
// unit, so that distances of exactly h, duplicates and shared cell
// faces are common instead of measure-zero; three byte values stand
// for NaN and ±Inf.
func latticeCloud(data []byte, dim int, unit float64) [][]float64 {
	const maxPoints = 96
	var pts [][]float64
	for len(data) >= dim && len(pts) < maxPoints {
		p := make([]float64, dim)
		for j := range p {
			switch b := int8(data[j]); b {
			case -128:
				p[j] = math.NaN()
			case 127:
				p[j] = math.Inf(1)
			case -127:
				p[j] = math.Inf(-1)
			default:
				p[j] = float64(b) * unit
			}
		}
		pts = append(pts, p)
		data = data[dim:]
	}
	return pts
}

// FuzzClusterEquivalence is TestClusterEqualsReference over clouds the
// fuzzer chooses: dimension 1–4, lattice pitch from 1/64 to 3. The
// bandwidth is 5/4, so that at the binary pitches a 3-4-5 offset is at
// distance exactly h.
func FuzzClusterEquivalence(f *testing.F) {
	f.Add([]byte{0, 0, 3, 4, 5, 0, 0, 251, 10, 0}, uint8(1), uint8(2))           // exactly h, and 2h
	f.Add([]byte{1, 1, 1, 1, 1, 1, 1, 1, 1}, uint8(2), uint8(0))                 // all equal
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 120}, uint8(0), uint8(1)) // ramp and a glitch
	f.Add([]byte{0, 0, 128, 0, 127, 1, 129, 2, 1, 1}, uint8(1), uint8(3))        // NaN, +Inf, -Inf
	f.Add([]byte{5, 250, 7, 9, 5, 250, 7, 9, 6, 251, 7, 9}, uint8(3), uint8(5))  // 4-d, coarse
	f.Fuzz(func(t *testing.T, data []byte, dimSeed, unitSeed uint8) {
		units := [...]float64{1.0 / 64, 1.0 / 8, 1.0 / 4, 1.0 / 2, 1, 3}
		pts := latticeCloud(data, 1+int(dimSeed%4), units[int(unitSeed)%len(units)])
		if len(pts) == 0 {
			t.Skip()
		}
		requireEqualsReference(t, pts, 1.25)
	})
}

// TestClusterAllocsIndependentOfShifts: two clouds with the same point
// count, occupied cells and cluster count, one needing far more shifts
// than the other, allocate exactly the same.
func TestClusterAllocsIndependentOfShifts(t *testing.T) {
	const n = 400
	slow := make([][]float64, n) // a ramp over two cells: edge seeds creep to the middle
	fast := make([][]float64, n) // two tight clumps either side of the cell face
	for i := range slow {
		slow[i] = []float64{2 * float64(i) / n}
		fast[i] = []float64{0.9 + 0.2*float64(i%2) + 1e-4*float64(i)/n}
	}
	cfg := Config{Bandwidth: 1}
	slowRes, slowShifts := referenceCluster(slow, cfg)
	fastRes, fastShifts := referenceCluster(fast, cfg)
	if len(slowRes.Centers) != len(fastRes.Centers) {
		t.Fatalf("clouds differ in structure: %d vs %d clusters", len(slowRes.Centers), len(fastRes.Centers))
	}
	if slowShifts < 2*fastShifts {
		t.Fatalf("slow cloud takes %d shifts, fast %d: no contrast to measure", slowShifts, fastShifts)
	}
	allocs := func(pts [][]float64) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Cluster(pts, cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(slow), allocs(fast); a != b {
		t.Fatalf("%d shifts allocate %.0f, %d shifts allocate %.0f", slowShifts, a, fastShifts, b)
	}
}
