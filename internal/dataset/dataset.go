// Package dataset synthesizes the evaluation corpus the paper collected
// on its proprietary fab testbed: 12 vacuum pumps monitored for three
// months at a 10-minute measurement period (1024 samples at 4 kHz per
// measurement), with 2800 expert-labelled measurements split
// 700 / 1400 / 700 across Zone A / BC / D, plus the PM/BM maintenance
// events of Table IV. Everything is seeded and deterministic.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"vibepm/internal/core"
	"vibepm/internal/mems"
	"vibepm/internal/par"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// Config controls generation.
type Config struct {
	// Pumps is the fleet size (default 12).
	Pumps int
	// Seed drives all randomness.
	Seed int64
	// DurationDays is the experiment window (default 90 — the paper's
	// 3 months).
	DurationDays float64
	// MeasurementsPerDay controls trend density (default 4; the paper's
	// 10-minute period corresponds to 144 — pass it explicitly for the
	// full-scale Fig. 15 run).
	MeasurementsPerDay float64
	// Samples is K per measurement (default 1024).
	Samples int
	// SampleRateHz is the capture rate (default 4000, as in §V-A).
	SampleRateHz float64
	// LabelCounts sets how many labelled measurements to synthesize per
	// zone. Nil selects the paper's 700/1400/700.
	LabelCounts map[physics.MergedZone]int
	// SkipTrend disables the dense per-pump trend measurements for
	// experiments that do not need them; the store then holds the
	// labelled captures only.
	SkipTrend bool
	// Workers caps the capture fan-out of trend and label generation
	// (0 = one worker per CPU). The output is byte-identical at any
	// worker count: every random decision is drawn sequentially and
	// captures are deterministic in (pump, day).
	Workers int
}

// The corpus's fixed labelling. Every corpus also gets the paper's
// Table IV maintenance schedule, PaperEventsFor its window.
const (
	// invalidLabelFraction simulates human labelling mistakes: this
	// fraction of the labels is stored but flagged invalid.
	invalidLabelFraction = 0.01
	// labelMargin keeps labelled measurements this wear margin away from
	// the zone boundaries: the paper's expert labels come from physical
	// inspection of clearly distinguishable conditions, not from
	// borderline cases.
	labelMargin = 0.08
)

// Event is one maintenance action during the window.
type Event struct {
	PumpID int
	Kind   core.MaintenanceKind
	// AtDays is the service time of the replacement.
	AtDays float64
}

// PaperEventsFor is the Table IV maintenance schedule — pumps 4, 5 and
// 8 are replaced by plan mid-window, pump 7 breaks down and is replaced
// — scaled to an experiment window of the given length (the paper's
// events fall at days 35/45/55/60 of its 90-day window).
func PaperEventsFor(durationDays float64) []Event {
	f := durationDays / 90
	return []Event{
		{PumpID: 4, Kind: core.PlannedMaintenance, AtDays: 35 * f},
		{PumpID: 5, Kind: core.PlannedMaintenance, AtDays: 45 * f},
		{PumpID: 7, Kind: core.BreakdownMaintenance, AtDays: 55 * f},
		{PumpID: 8, Kind: core.PlannedMaintenance, AtDays: 60 * f},
	}
}

// paperInitialD is the per-pump initial wear that realizes the paper's
// Table IV narrative: the PM'd pumps (4, 5, 8) are young Model I units
// whose planned replacement throws away hundreds of days of life; pump
// 7 is already in the unrecognized alarming condition that ends in its
// breakdown; pumps 2 and 11 (Model II) approach or pass the Zone D
// boundary by the window's end; the rest are healthy long-term units.
var paperInitialD = []float64{
	0.15, 0.18, 0.67, 0.22, 0.02, 0.15,
	0.02, 0.80, 0.20, 0.25, 0.12, 0.22,
}

// Dataset is the generated corpus.
type Dataset struct {
	Config Config
	Fleet  *physics.Fleet
	// Sensors holds one sensor per pump (index == pump id).
	Sensors []*mems.Sensor
	// Measurements holds every capture Generate made: the dense trend
	// and the labelled measurements, as the paper's one sensor database
	// does.
	Measurements *store.Measurements
	// LabelledRecords pairs every label with its measurement (a record
	// of Measurements).
	LabelledRecords []LabelledRecord
	// Labels is the label store (including the invalid ones).
	Labels *store.Labels
	// Events echoes the maintenance schedule applied.
	Events []Event
}

// LabelledRecord is one (measurement, expert label) training pair.
type LabelledRecord struct {
	Record *store.Record
	Zone   physics.MergedZone
	Valid  bool
}

// ErrZoneUnreachable is returned when the fleet cannot produce a
// requested zone within the window.
var ErrZoneUnreachable = errors.New("dataset: zone not reachable by any pump in the window")

func (c Config) withDefaults() Config {
	if c.Pumps <= 0 {
		c.Pumps = 12
	}
	if c.DurationDays <= 0 {
		c.DurationDays = 90
	}
	if c.MeasurementsPerDay <= 0 {
		c.MeasurementsPerDay = 4
	}
	if c.Samples <= 0 {
		c.Samples = 1024
	}
	if c.SampleRateHz <= 0 {
		c.SampleRateHz = 4000
	}
	if c.LabelCounts == nil {
		c.LabelCounts = map[physics.MergedZone]int{
			physics.MergedA:  700,
			physics.MergedBC: 1400,
			physics.MergedD:  700,
		}
	}
	return c
}

// confidentZone maps a wear level to a zone only when the condition is
// unambiguous; borderline cases return false (the expert declines to
// label them). Zone A and D are bounded away from their boundaries by
// margin; BC labels concentrate on the representative mid-zone band,
// since the experts' audial/visual inspection identifies clear
// "caution" conditions, not infinitesimal departures from healthy.
func confidentZone(d, margin float64) (physics.MergedZone, bool) {
	bcMid := (physics.DegradationB + physics.DegradationD) / 2
	switch {
	case d < physics.DegradationB-margin:
		return physics.MergedA, true
	case d >= bcMid-margin && d < bcMid+margin:
		return physics.MergedBC, true
	case d >= physics.DegradationD+margin:
		return physics.MergedD, true
	default:
		return physics.MergedUnknown, false
	}
}

// labelFleet builds the Table IV fleet: the paper's model assignment
// and the initial wear levels of paperInitialD (with a small seed
// jitter), which together cover all three zones inside the experiment
// window.
func labelFleet(cfg Config) *physics.Fleet {
	models := physics.PaperModelAssignment
	pumps := make([]*physics.Pump, cfg.Pumps)
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0xda7a))
	for i := 0; i < cfg.Pumps; i++ {
		model := models[i%len(models)]
		probe := physics.NewPump(physics.PumpConfig{ID: i, Model: model, Seed: cfg.Seed + int64(i)*1_000_003})
		life := probe.LifeDays()
		d := paperInitialD[i%len(paperInitialD)] + 0.015*(2*rng.Float64()-1)
		if d < 0 {
			d = 0
		}
		pumps[i] = physics.NewPump(physics.PumpConfig{
			ID:             i,
			Model:          model,
			LifeDays:       life,
			InitialAgeDays: d * life,
			RotorHz:        probe.RotorHz(),
			Seed:           cfg.Seed + int64(i)*1_000_003,
		})
	}
	// Short experiment windows may leave the BC label band uncovered
	// (no pump walks through it in time). Repurpose the last Model I
	// pump as a mid-life unit in that case so every zone stays
	// labelable.
	covered := false
	for _, p := range pumps {
		if pumpCoversZone(p, physics.MergedBC, cfg.DurationDays, labelMargin) {
			covered = true
			break
		}
	}
	if !covered && cfg.Pumps > 0 {
		i := cfg.Pumps - 2
		if i < 0 {
			i = 0
		}
		old := pumps[i]
		mid := (physics.DegradationB + physics.DegradationD) / 2
		pumps[i] = physics.NewPump(physics.PumpConfig{
			ID:             i,
			Model:          old.Model(),
			LifeDays:       old.LifeDays(),
			InitialAgeDays: mid * old.LifeDays(),
			RotorHz:        old.RotorHz(),
			Seed:           cfg.Seed + int64(i)*1_000_003,
		})
	}
	return &physics.Fleet{Pumps: pumps}
}

// checkFinite refuses a non-finite window, density or rate before
// withDefaults sees it: NaN fails every `<= 0` default check, and a
// corpus generated from it is silently empty or wrong.
func (c Config) checkFinite() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DurationDays", c.DurationDays},
		{"MeasurementsPerDay", c.MeasurementsPerDay},
		{"SampleRateHz", c.SampleRateHz},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("dataset: %s is %v, want a finite number", f.name, f.v)
		}
	}
	return nil
}

// Generate synthesizes the corpus.
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.checkFinite(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	fleet := labelFleet(cfg)
	ds := &Dataset{
		Config:       cfg,
		Fleet:        fleet,
		Measurements: store.NewMeasurements(),
		Labels:       store.NewLabels(),
		Events:       PaperEventsFor(cfg.DurationDays),
	}
	// Apply the maintenance schedule to the physical fleet.
	for _, ev := range ds.Events {
		if p := fleet.Pump(ev.PumpID); p != nil {
			p.Replace(ev.AtDays)
		}
	}
	// One sensor per pump.
	ds.Sensors = make([]*mems.Sensor, cfg.Pumps)
	for i := 0; i < cfg.Pumps; i++ {
		s, err := mems.New(mems.Config{
			SampleRateHz: cfg.SampleRateHz,
			Seed:         cfg.Seed + int64(i)*7919,
		})
		if err != nil {
			return nil, fmt.Errorf("dataset: sensor %d: %w", i, err)
		}
		ds.Sensors[i] = s
	}
	if !cfg.SkipTrend {
		if err := ds.generateTrend(); err != nil {
			return nil, err
		}
	}
	if err := ds.generateLabels(); err != nil {
		return nil, err
	}
	return ds, nil
}

// Capture takes one measurement of a pump and returns the stored
// record (without adding it to the store).
func (d *Dataset) Capture(pumpID int, day float64) *store.Record {
	pump := d.Fleet.Pump(pumpID)
	sensor := d.Sensors[pumpID]
	m := sensor.Measure(pump, day, d.Config.Samples)
	rec := &store.Record{
		PumpID:       pumpID,
		ServiceDays:  day,
		SampleRateHz: m.SampleRateHz,
		ScaleG:       m.ScaleG,
	}
	for axis := 0; axis < mems.Axes; axis++ {
		rec.Raw[axis] = m.Raw[axis]
	}
	return rec
}

func (d *Dataset) generateTrend() error {
	cfg := d.Config
	step := 1 / cfg.MeasurementsPerDay
	perPump := int(cfg.DurationDays / step)
	if float64(perPump)*step < cfg.DurationDays {
		perPump++
	}
	total := cfg.Pumps * perPump
	// Capture is deterministic in (pump, day), so the fan-out changes
	// nothing but wall-clock time.
	recs := par.Map(total, cfg.Workers, func(i int) *store.Record {
		id := i / perPump
		day := float64(i%perPump) * step
		if day >= cfg.DurationDays {
			return nil
		}
		return d.Capture(id, day)
	})
	for _, rec := range recs {
		if rec != nil {
			d.Measurements.Add(rec)
		}
	}
	return nil
}

// labelPick is one accepted rejection-sampling draw: everything the
// label needs except the (expensive) capture itself.
type labelPick struct {
	id    int
	day   float64
	zone  physics.MergedZone
	valid bool
}

// generateLabels fills the per-zone quotas by rejection sampling over
// (pump, time) pairs whose ground-truth zone matches, then flags a
// small fraction as invalid human mistakes. The random decisions are
// drawn sequentially — the RNG stream is identical to a fully
// sequential run — and only the captures (deterministic in (pump,
// day), and the dominant cost at the paper's 1024-sample size) fan
// out, so the output is byte-identical at any worker count.
func (d *Dataset) generateLabels() error {
	cfg := d.Config
	rng := rand.New(rand.NewSource(cfg.Seed ^ 0x1abe1))
	var picks []labelPick
	for _, zone := range physics.MergedZones {
		want := cfg.LabelCounts[zone]
		if want == 0 {
			continue
		}
		// Precompute which pumps can exhibit the zone in the window.
		var candidates []int
		for id := 0; id < cfg.Pumps; id++ {
			pump := d.Fleet.Pump(id)
			if pumpCoversZone(pump, zone, cfg.DurationDays, labelMargin) {
				candidates = append(candidates, id)
			}
		}
		if len(candidates) == 0 {
			return fmt.Errorf("%w: %v", ErrZoneUnreachable, zone)
		}
		got := 0
		attempts := 0
		maxAttempts := want * 200
		for got < want && attempts < maxAttempts {
			attempts++
			id := candidates[rng.Intn(len(candidates))]
			day := rng.Float64() * cfg.DurationDays
			pump := d.Fleet.Pump(id)
			z, confident := confidentZone(pump.DegradationAt(day), labelMargin)
			if !confident || z != zone {
				continue
			}
			valid := rng.Float64() >= invalidLabelFraction
			picks = append(picks, labelPick{id: id, day: day, zone: zone, valid: valid})
			got++
		}
		if got < want {
			return fmt.Errorf("dataset: only %d/%d labels for %v after %d attempts", got, want, zone, attempts)
		}
	}
	recs := par.Map(len(picks), cfg.Workers, func(i int) *store.Record {
		return d.Capture(picks[i].id, picks[i].day)
	})
	// Append in draw order, exactly as the sequential loop did.
	for i, p := range picks {
		d.Measurements.Add(recs[i])
		d.LabelledRecords = append(d.LabelledRecords, LabelledRecord{Record: recs[i], Zone: p.zone, Valid: p.valid})
		if err := d.Labels.Add(store.Label{
			PumpID:      p.id,
			ServiceDays: p.day,
			Zone:        p.zone,
			Source:      store.DataDriven,
			Valid:       p.valid,
		}); err != nil {
			return err
		}
	}
	return nil
}

// pumpCoversZone reports whether the pump's ground truth passes through
// the (confidently labelable) zone anywhere in [0, duration].
func pumpCoversZone(p *physics.Pump, zone physics.MergedZone, duration, margin float64) bool {
	const probes = 64
	for i := 0; i <= probes; i++ {
		day := duration * float64(i) / probes
		if z, ok := confidentZone(p.DegradationAt(day), margin); ok && z == zone {
			return true
		}
	}
	return false
}

// ValidLabelled returns only the valid labelled records — what the
// paper keeps for model building after discarding human mistakes.
func (d *Dataset) ValidLabelled() []LabelledRecord {
	out := make([]LabelledRecord, 0, len(d.LabelledRecords))
	for _, lr := range d.LabelledRecords {
		if lr.Valid {
			out = append(out, lr)
		}
	}
	return out
}
