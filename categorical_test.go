package vibepm_test

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"vibepm"
	"vibepm/internal/dataset"
	"vibepm/internal/experiments"
	"vibepm/internal/feature"
	"vibepm/internal/physics"
)

// categorical is every categorical output of the analysis on the
// pinned corpora: what a rounding-level change to a kernel may not
// move, while the float goldens it leaves may move in their last
// digits.
type categorical struct {
	// LabelledZones is the zone Engine.Classify gives every labelled
	// record of fitEngine's corpus at seed 1, keyed pump@day.
	LabelledZones map[string]string `json:"labelled_zones"`
	// RULModels is how many lifetime models that engine learns.
	RULModels int `json:"rul_models"`
	// Table3 is Table III's confusion counts on the Small corpus at
	// seed 1: metric, then truth->predicted.
	Table3 map[string]map[string]int `json:"table3"`
	// FaultClasses and FaultConfusion are read from
	// testdata/faults_golden.json and faults_confusion.golden.json.
	FaultClasses   map[string]string `json:"fault_classes"`
	FaultConfusion map[string]int    `json:"fault_confusion"`
	// FleetPumps and FleetModels are read from
	// testdata/fleet_small.golden.json, LiveZones and LiveRULPumps from
	// testdata/live_golden.json.
	FleetPumps   map[string]string `json:"fleet_pumps"`
	FleetModels  int               `json:"fleet_models"`
	LiveZones    map[string]string `json:"live_zones"`
	LiveRULPumps []string          `json:"live_rul_pumps"`
}

// TestCategoricalOutputs pins every categorical output to
// testdata/categorical.golden.json: the zones, confusion counts, fault
// classes and model counts the float goldens carry, extracted from
// those goldens, plus the labelled zones and Table III computed here.
// A change to the transform kernels may move a float golden in its
// last digits; it may not move this file. So the -update flag that
// regenerates those goldens does not write it: a category that moves
// on purpose is edited in by hand, from the value the failure prints.
func TestCategoricalOutputs(t *testing.T) {
	got := categorical{
		LabelledZones: map[string]string{},
		Table3:        map[string]map[string]int{},
		FaultClasses:  map[string]string{},
		FleetPumps:    map[string]string{},
		LiveZones:     map[string]string{},
	}

	// fitEngine's corpus (engine_test.go) at seed 1.
	ds, err := dataset.Generate(dataset.Config{
		Seed:               1,
		DurationDays:       40,
		MeasurementsPerDay: 1,
		Samples:            1024,
		LabelCounts: map[physics.MergedZone]int{
			physics.MergedA:  40,
			physics.MergedBC: 80,
			physics.MergedD:  40,
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := vibepm.NewWithStores(vibepm.Options{}, ds.Measurements, ds.Labels)
	if err := eng.Fit(); err != nil {
		t.Fatal(err)
	}
	for _, lr := range ds.ValidLabelled() {
		zone, _, err := eng.Classify(lr.Record)
		if err != nil {
			t.Fatal(err)
		}
		got.LabelledZones[fmt.Sprintf("%02d@%g", lr.Record.PumpID, lr.Record.ServiceDays)] = zone.String()
	}
	models, err := eng.LearnLifetimeModels(func(pumpID int, serviceDays float64) float64 {
		return ds.Fleet.Pump(pumpID).UnitAgeDays(serviceDays)
	})
	if err != nil {
		t.Fatal(err)
	}
	got.RULModels = len(models.Models)

	c, err := experiments.NewCorpus(experiments.Small, 1)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := experiments.Table3(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range feature.Metrics {
		counts := map[string]int{}
		for _, truth := range physics.MergedZones {
			for _, pred := range physics.MergedZones {
				counts[fmt.Sprintf("%v->%v", truth, pred)] = t3.Confusion[m].Count(truth, pred)
			}
		}
		got.Table3[m.String()] = counts
	}

	var faults []goldenFaultCase
	readGolden(t, "faults_golden.json", &faults)
	for _, fc := range faults {
		got.FaultClasses[fc.Name] = fc.Report.Class.String()
	}
	var cm struct {
		Counts map[string]int `json:"counts"`
	}
	readGolden(t, "faults_confusion.golden.json", &cm)
	got.FaultConfusion = cm.Counts

	var fleet struct {
		Models int `json:"models"`
		Pumps  []struct {
			PumpID   int  `json:"pump_id"`
			Zone     int  `json:"zone"`
			HasRUL   bool `json:"has_rul"`
			ModelIdx int  `json:"model_idx"`
		} `json:"pumps"`
	}
	readGolden(t, "fleet_small.golden.json", &fleet)
	got.FleetModels = fleet.Models
	for _, p := range fleet.Pumps {
		got.FleetPumps[keyOf(p.PumpID)] = fmt.Sprintf("zone=%d has_rul=%t model_idx=%d", p.Zone, p.HasRUL, p.ModelIdx)
	}

	var live liveGolden
	readGolden(t, "live_golden.json", &live)
	got.LiveZones = live.Zones
	for key := range live.RULs {
		got.LiveRULPumps = append(got.LiveRULPumps, key)
	}
	sort.Strings(got.LiveRULPumps)

	buf, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	buf = append(buf, '\n')
	path := filepath.Join("testdata", "categorical.golden.json")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(buf) != string(want) {
		t.Errorf("categorical outputs drifted from %s\ngot:  %s\nwant: %s", path, buf, want)
	}
}

// readGolden decodes testdata/name into v.
func readGolden(t *testing.T, name string, v any) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}
