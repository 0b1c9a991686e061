package experiments

import (
	"fmt"
	"strings"

	"vibepm/internal/physics"
)

// Fig11Density is one zone's estimated P(D_a | zone) on a grid.
type Fig11Density struct {
	Zone    physics.MergedZone
	Samples int
	X, Y    []float64
	Mean    float64
}

// Fig11Result reproduces the per-zone D_a densities and the BC/D
// decision boundary of the paper's Fig. 11 (their boundary: 0.21).
type Fig11Result struct {
	Densities []Fig11Density
	Boundary  float64
}

// Fig11 reads the densities and the BC/D boundary the engine's Fit
// estimated from every valid labelled measurement in the corpus, and
// the mean D_a of each zone.
func Fig11(c *Corpus) (*Fig11Result, error) {
	dens, err := c.Engine.Densities()
	if err != nil {
		return nil, err
	}
	for _, zone := range []physics.MergedZone{physics.MergedBC, physics.MergedD} {
		if _, ok := dens.ByZone[zone]; !ok {
			return nil, fmt.Errorf("experiments: no Zone %v samples for the boundary", zone)
		}
	}
	boundary, err := c.Engine.Boundary()
	if err != nil {
		return nil, err
	}
	byZone := map[physics.MergedZone][]float64{}
	for _, lr := range c.Dataset.ValidLabelled() {
		da, err := c.Engine.Da(lr.Record)
		if err != nil {
			continue
		}
		byZone[lr.Zone] = append(byZone[lr.Zone], da)
	}
	res := &Fig11Result{Boundary: boundary}
	// Common grid across zones for plotting.
	lo, hi := 0.0, 0.0
	for _, e := range dens.ByZone {
		l, h := e.Support()
		if l < lo {
			lo = l
		}
		if h > hi {
			hi = h
		}
	}
	for _, zone := range physics.MergedZones {
		e, ok := dens.ByZone[zone]
		if !ok {
			continue
		}
		xs, ys := e.Grid(lo, hi, 200)
		res.Densities = append(res.Densities, Fig11Density{
			Zone:    zone,
			Samples: e.N(),
			X:       xs,
			Y:       ys,
			Mean:    meanOf(byZone[zone]),
		})
	}
	return res, nil
}

func meanOf(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// String renders the density summary and boundary.
func (r *Fig11Result) String() string {
	var b strings.Builder
	for _, d := range r.Densities {
		fmt.Fprintf(&b, "P(Da|%v): n=%d, mean Da=%.3f\n", d.Zone, d.Samples, d.Mean)
	}
	fmt.Fprintf(&b, "decision boundary between Zone BC and Zone D: Da = %.3f (paper: 0.21)\n", r.Boundary)
	return b.String()
}
