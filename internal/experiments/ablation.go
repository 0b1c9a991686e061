package experiments

import (
	"fmt"
	"math"
	"strings"

	"vibepm"
	"vibepm/internal/core"
	"vibepm/internal/mote"
	"vibepm/internal/physics"
)

// PeakParamPoint is one (n_p, n_h) setting of the harmonic-peak
// extraction and the classification accuracy it yields.
type PeakParamPoint struct {
	NumPeaks   int
	HannWindow int
	Accuracy   float64
	Boundary   float64
}

// PeakParamResult is the sensitivity ablation over the paper's two
// control parameters ("Together with n_p the Hann window size n_h is an
// important control parameter ... deciding the sensitivity of the
// peaks").
type PeakParamResult struct {
	Points  []PeakParamPoint
	Default PeakParamPoint
}

// AblationPeakParams refits the engine on the corpus's stores for every
// (n_p, n_h) combination and reports in-corpus classification accuracy.
func AblationPeakParams(c *Corpus) (*PeakParamResult, error) {
	res := &PeakParamResult{}
	for _, np := range []int{10, 20, 40} {
		for _, nh := range []int{8, 24, 64} {
			eng := vibepm.NewWithStores(vibepm.Options{
				Harmonic: vibepm.HarmonicOptions{NumPeaks: np, HannWindow: nh},
			}, c.Dataset.Measurements, c.Dataset.Labels)
			if err := eng.Fit(); err != nil {
				return nil, fmt.Errorf("experiments: ablation np=%d nh=%d: %w", np, nh, err)
			}
			conf := core.NewConfusion()
			for _, lr := range c.Dataset.ValidLabelled() {
				zone, _, err := eng.Classify(lr.Record)
				if err != nil {
					continue
				}
				conf.Add(lr.Zone, zone)
			}
			boundary, _ := eng.Boundary()
			p := PeakParamPoint{NumPeaks: np, HannWindow: nh, Accuracy: conf.Accuracy(), Boundary: boundary}
			res.Points = append(res.Points, p)
			if np == 20 && nh == 24 {
				res.Default = p
			}
		}
	}
	return res, nil
}

// String renders the grid.
func (r *PeakParamResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-6s %10s %10s\n", "np", "nh", "accuracy", "boundary")
	for _, p := range r.Points {
		marker := ""
		if p.NumPeaks == 20 && p.HannWindow == 24 {
			marker = "  <- paper default"
		}
		fmt.Fprintf(&b, "%-6d %-6d %10.3f %10.3f%s\n", p.NumPeaks, p.HannWindow, p.Accuracy, p.Boundary, marker)
	}
	return b.String()
}

// AdaptiveSamplingResult quantifies the paper's future-work proposal:
// adapting the report period to the classified zone extends node
// lifetime at equal decision quality.
type AdaptiveSamplingResult struct {
	FixedLifetimeYears    float64
	AdaptiveLifetimeYears float64
	// ZoneShare is the fraction of fleet-time spent per zone used for
	// the energy computation.
	ZoneShare map[physics.MergedZone]float64
}

// AblationAdaptiveSampling measures the corpus fleet's zone occupancy
// and compares node lifetime under a fixed 10-hour schedule against the
// zone-adaptive scheduler.
func AblationAdaptiveSampling(c *Corpus) (*AdaptiveSamplingResult, error) {
	duration := c.Dataset.Config.DurationDays
	share := map[physics.MergedZone]float64{}
	var total float64
	for _, pump := range c.Dataset.Fleet.Pumps {
		const probes = 60
		for i := 0; i < probes; i++ {
			day := duration * float64(i) / probes
			share[pump.ZoneAt(day).Merged()]++
			total++
		}
	}
	for z := range share {
		share[z] /= total
	}
	e := mote.DefaultEnergyModel()
	const baseHours = 10.0
	fixed, err := e.LifetimeForSchedule(4000, baseHours)
	if err != nil {
		return nil, err
	}
	sched := mote.AdaptiveScheduler{BaseHours: baseHours}
	em, err := e.MeasurementEnergy(4000)
	if err != nil {
		return nil, err
	}
	perHour := share[physics.MergedA]*em/sched.Period(0) +
		share[physics.MergedBC]*em/sched.Period(1) +
		share[physics.MergedD]*em/sched.Period(2)
	adaptiveYears := e.BatteryJ / (e.SleepW*3600 + perHour) / (365 * 24)
	return &AdaptiveSamplingResult{
		FixedLifetimeYears:    fixed,
		AdaptiveLifetimeYears: adaptiveYears,
		ZoneShare:             share,
	}, nil
}

// String renders the comparison.
func (r *AdaptiveSamplingResult) String() string {
	return fmt.Sprintf("node lifetime: fixed schedule %.2f y, zone-adaptive %.2f y (%.0f%% longer); zone occupancy A=%.2f BC=%.2f D=%.2f\n",
		r.FixedLifetimeYears, r.AdaptiveLifetimeYears,
		100*(r.AdaptiveLifetimeYears/r.FixedLifetimeYears-1),
		r.ZoneShare[physics.MergedA], r.ZoneShare[physics.MergedBC], r.ZoneShare[physics.MergedD])
}

// TrendRULResult compares the global recursive-RANSAC RUL projector
// against the per-pump sequential trend projector (the paper's
// future-work direction).
type TrendRULResult struct {
	// MAERansac and MAETrend are mean absolute errors (days) against
	// the ground-truth RUL, over pumps where both methods produced a
	// prediction.
	MAERansac float64
	MAETrend  float64
	Pumps     int
}

// AblationTrendRUL runs both projectors over the corpus fleet.
func AblationTrendRUL(c *Corpus) (*TrendRULResult, error) {
	if _, err := c.Engine.Models(); err != nil {
		if _, err := c.Engine.LearnLifetimeModels(c.AgeOf); err != nil {
			return nil, err
		}
	}
	models, err := c.Engine.Models()
	if err != nil {
		return nil, err
	}
	trendProj := core.TrendRUL{ThresholdDa: models.ThresholdDa}
	duration := c.Dataset.Config.DurationDays
	res := &TrendRULResult{}
	for _, pump := range c.Dataset.Fleet.Pumps {
		id := pump.ID()
		trend, err := c.Engine.CleanTrend(id, c.AgeOf)
		if err != nil {
			continue
		}
		ransacRUL, _, err := c.Engine.PredictRUL(id, c.AgeOf)
		if err != nil {
			continue
		}
		trendRUL, err := trendProj.Predict(trend)
		if err != nil {
			continue
		}
		truth := pump.RemainingDays(duration)
		res.MAERansac += math.Abs(ransacRUL - truth)
		res.MAETrend += math.Abs(trendRUL - truth)
		res.Pumps++
	}
	if res.Pumps == 0 {
		return nil, fmt.Errorf("experiments: no pumps produced both RUL estimates")
	}
	res.MAERansac /= float64(res.Pumps)
	res.MAETrend /= float64(res.Pumps)
	return res, nil
}

// String renders the comparison.
func (r *TrendRULResult) String() string {
	return fmt.Sprintf("RUL MAE over %d pumps: recursive RANSAC %.0f days, sequential trend %.0f days\n",
		r.Pumps, r.MAERansac, r.MAETrend)
}
