package physics

import "math/rand"

// PaperModelAssignment is the per-pump lifetime-model assignment of the
// paper's Table IV (pumps 0–11): pumps 2, 6, 7 and 11 belong to the
// fast-ageing Model II population, the rest to Model I.
var PaperModelAssignment = []LifetimeModel{
	ModelI, ModelI, ModelII, ModelI, ModelI, ModelI,
	ModelII, ModelII, ModelI, ModelI, ModelI, ModelII,
}

// FleetConfig describes a simulated pump fleet.
type FleetConfig struct {
	// N is the number of pumps. Defaults to 12 (the paper's testbed).
	N int
	// Seed drives all per-pump randomness.
	Seed int64
}

// Fleet is a collection of simulated pumps under monitoring.
type Fleet struct {
	Pumps []*Pump
}

// NewFleet builds a fleet from cfg.
func NewFleet(cfg FleetConfig) *Fleet {
	n := cfg.N
	if n <= 0 {
		n = len(PaperModelAssignment)
	}
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0xf1ee7))
	pumps := make([]*Pump, n)
	for i := 0; i < n; i++ {
		// Lifetime models follow the paper's assignment, wrapping past
		// its twelve pumps.
		model := PaperModelAssignment[i%len(PaperModelAssignment)]
		p := NewPump(PumpConfig{
			ID:    i,
			Model: model,
			Seed:  cfg.Seed + int64(i)*1_000_003,
		})
		// Initial ages are uniform over the first 60% of each pump's
		// characteristic life (the variance-on-initial-status
		// assumption).
		age := rng.Float64() * (0.6 * p.LifeDays())
		pumps[i] = NewPump(PumpConfig{
			ID:             i,
			Model:          model,
			LifeDays:       p.LifeDays(),
			InitialAgeDays: age,
			RotorHz:        p.RotorHz(),
			Seed:           cfg.Seed + int64(i)*1_000_003,
		})
	}
	return &Fleet{Pumps: pumps}
}

// Pump returns the pump with the given id, or nil.
func (f *Fleet) Pump(id int) *Pump {
	if id < 0 || id >= len(f.Pumps) {
		return nil
	}
	return f.Pumps[id]
}

// ZoneCounts tallies the fleet's ground-truth merged zones at the given
// service time.
func (f *Fleet) ZoneCounts(serviceDays float64) map[MergedZone]int {
	out := make(map[MergedZone]int)
	for _, p := range f.Pumps {
		out[p.ZoneAt(serviceDays).Merged()]++
	}
	return out
}
