package vibepm_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"vibepm"
	"vibepm/internal/feature"
	"vibepm/internal/mems"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// goldenFaultCase is one labelled measurement of the classification
// corpus: the ground truth that synthesized it plus the detector's
// report.
type goldenFaultCase struct {
	Name     string             `json:"name"`
	Seed     int64              `json:"seed"`
	Wear     float64            `json:"wear"`
	Severity float64            `json:"severity"`
	Truth    vibepm.FaultClass  `json:"truth"`
	Report   vibepm.FaultReport `json:"report"`
}

// goldenFaultSeeds / goldenHealthySeeds pin the corpus. Healthy
// controls sweep the monitored wear range (above 0.5 the wear model
// itself grows defect tones — that is a real fault signature, not a
// false positive).
var (
	goldenHealthySeeds = []int64{11, 12, 13}
	goldenHealthyWears = []float64{0.05, 0.30, 0.50}
	goldenFaultSeeds   = []int64{11, 12}
	goldenSeverities   = []float64{0.25, 0.5, 1.0}
	goldenFaultKinds   = []struct {
		Name string
		Cfg  physics.FaultConfig
	}{
		{"bearing-BPFO", physics.FaultConfig{Class: physics.FaultBearing, Defect: physics.DefectOuterRace}},
		{"bearing-BPFI", physics.FaultConfig{Class: physics.FaultBearing, Defect: physics.DefectInnerRace}},
		{"bearing-BSF", physics.FaultConfig{Class: physics.FaultBearing, Defect: physics.DefectBall}},
		{"imbalance", physics.FaultConfig{Class: physics.FaultImbalance}},
		{"misalign-angular", physics.FaultConfig{Class: physics.FaultMisalignment, Misalign: physics.MisalignAngular}},
		{"misalign-parallel", physics.FaultConfig{Class: physics.FaultMisalignment, Misalign: physics.MisalignParallel}},
		{"looseness", physics.FaultConfig{Class: physics.FaultLooseness}},
	}
)

// goldenCapture synthesizes one pinned measurement: the paper's
// 1024 samples at 4 kHz, quantized through the MEMS model.
func goldenCapture(t *testing.T, seed int64, wear float64, fault physics.FaultConfig) (*store.Record, *physics.Pump) {
	t.Helper()
	const life = 600.0
	base := physics.NewPump(physics.PumpConfig{ID: int(seed), Seed: seed, LifeDays: life})
	src := mems.Source(base)
	if fault.Class != physics.FaultNone {
		src = physics.NewFaultyPump(base, fault)
	}
	sensor, err := mems.New(mems.Config{Seed: seed*7 + 1, SampleRateHz: 4000})
	if err != nil {
		t.Fatal(err)
	}
	day := wear * life
	m := sensor.Measure(src, day, 1024)
	return &store.Record{
		PumpID:       int(seed),
		ServiceDays:  day,
		SampleRateHz: m.SampleRateHz,
		ScaleG:       m.ScaleG,
		Raw:          m.Raw,
	}, base
}

// goldenFaultCorpus classifies the full labelled corpus: healthy
// controls across the wear range plus every fault kind × severity ×
// seed. Classification uses the pump's true rotor speed (the harness
// proves the detectors; rotor estimation is proven separately).
func goldenFaultCorpus(t *testing.T) []goldenFaultCase {
	t.Helper()
	var cases []goldenFaultCase
	for _, seed := range goldenHealthySeeds {
		for _, wear := range goldenHealthyWears {
			rec, pump := goldenCapture(t, seed, wear, physics.FaultConfig{})
			rep := feature.DetectRecord(rec, feature.MachineSpec{RotorHz: pump.RotorHz()})
			cases = append(cases, goldenFaultCase{
				Name:   fmt.Sprintf("healthy/seed=%d/wear=%.2f", seed, wear),
				Seed:   seed,
				Wear:   wear,
				Truth:  physics.FaultNone,
				Report: rep,
			})
		}
	}
	for _, kind := range goldenFaultKinds {
		for _, sev := range goldenSeverities {
			for _, seed := range goldenFaultSeeds {
				cfg := kind.Cfg
				cfg.Severity = sev
				rec, pump := goldenCapture(t, seed, 0.15, cfg)
				rep := feature.DetectRecord(rec, feature.MachineSpec{RotorHz: pump.RotorHz()})
				cases = append(cases, goldenFaultCase{
					Name:     fmt.Sprintf("%s/sev=%.2f/seed=%d", kind.Name, sev, seed),
					Seed:     seed,
					Wear:     0.15,
					Severity: sev,
					Truth:    cfg.Class,
					Report:   rep,
				})
			}
		}
	}
	return cases
}

// confusionMatrix is the committed classification summary: counts of
// (truth, predicted) pairs plus the derived gates.
type confusionMatrix struct {
	// Counts maps "truth->predicted" to the number of cases.
	Counts map[string]int `json:"counts"`
	// HealthyFalsePositives must be zero.
	HealthyFalsePositives int `json:"healthy_false_positives"`
	// RecallAtFullSeverity maps fault class to recall at severity 1.0
	// (every entry must be 1).
	RecallAtFullSeverity map[string]float64 `json:"recall_at_full_severity"`
	// RecallOverall maps fault class to recall across all severities.
	RecallOverall map[string]float64 `json:"recall_overall"`
}

func buildConfusion(cases []goldenFaultCase) confusionMatrix {
	cm := confusionMatrix{
		Counts:               map[string]int{},
		RecallAtFullSeverity: map[string]float64{},
		RecallOverall:        map[string]float64{},
	}
	type tally struct{ hit, total, hitFull, totalFull int }
	perClass := map[vibepm.FaultClass]*tally{}
	for _, c := range cases {
		cm.Counts[fmt.Sprintf("%v->%v", c.Truth, c.Report.Class)]++
		if c.Truth == physics.FaultNone {
			if c.Report.Class != physics.FaultNone {
				cm.HealthyFalsePositives++
			}
			continue
		}
		tl := perClass[c.Truth]
		if tl == nil {
			tl = &tally{}
			perClass[c.Truth] = tl
		}
		tl.total++
		if c.Report.Class == c.Truth {
			tl.hit++
		}
		if c.Severity == 1.0 {
			tl.totalFull++
			if c.Report.Class == c.Truth {
				tl.hitFull++
			}
		}
	}
	for class, tl := range perClass {
		cm.RecallOverall[fmt.Sprintf("%v", class)] = float64(tl.hit) / float64(tl.total)
		cm.RecallAtFullSeverity[fmt.Sprintf("%v", class)] = float64(tl.hitFull) / float64(tl.totalFull)
	}
	return cm
}

// TestFaultGoldenClassification is the golden classification harness:
// the detector's exact output over the pinned labelled corpus is
// committed to testdata/faults_golden.json and byte-compared, and the
// derived confusion matrix (testdata/faults_confusion.golden.json) is
// gated — zero false positives on healthy pumps, 100% per-class
// detection at severity 1.0, and a recall floor across the whole
// severity sweep. Regenerate both with `go test -run FaultGolden -update`.
func TestFaultGoldenClassification(t *testing.T) {
	cases := goldenFaultCorpus(t)
	cm := buildConfusion(cases)

	// Hard gates first: these hold regardless of what is committed.
	if cm.HealthyFalsePositives != 0 {
		t.Errorf("healthy false positives: %d, want 0", cm.HealthyFalsePositives)
	}
	for class, recall := range cm.RecallAtFullSeverity {
		if recall != 1.0 {
			t.Errorf("recall at severity 1.0 for %s: %.2f, want 1.00", class, recall)
		}
	}
	const recallFloor = 0.8
	for class, recall := range cm.RecallOverall {
		if recall < recallFloor {
			t.Errorf("overall recall for %s: %.2f, want >= %.2f", class, recall, recallFloor)
		}
	}
	for _, c := range cases {
		if c.Severity == 1.0 && c.Report.Class != c.Truth {
			t.Errorf("%s: classified %v, want %v", c.Name, c.Report.Class, c.Truth)
		}
	}

	// Golden byte-compare: the exact reports (confidences, evidence
	// values, rotor estimates) are pinned.
	casesJSON, err := json.MarshalIndent(cases, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	casesJSON = append(casesJSON, '\n')
	cmJSON, err := json.MarshalIndent(cm, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	cmJSON = append(cmJSON, '\n')

	goldenCases := filepath.Join("testdata", "faults_golden.json")
	goldenCM := filepath.Join("testdata", "faults_confusion.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCases, casesJSON, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCM, cmJSON, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenCases)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(casesJSON, want) {
		t.Errorf("classification corpus drifted from %s (regenerate with -update if intended)", goldenCases)
	}
	wantCM, err := os.ReadFile(goldenCM)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(cmJSON, wantCM) {
		t.Errorf("confusion matrix drifted from %s\ngot:  %s\nwant: %s", goldenCM, cmJSON, wantCM)
	}
}

// TestFaultGoldenDeterminism re-runs a slice of the corpus and checks
// byte-identical serialization — the property that makes the golden
// file meaningful.
func TestFaultGoldenDeterminism(t *testing.T) {
	run := func() []byte {
		cfg := physics.FaultConfig{Class: physics.FaultBearing, Defect: physics.DefectInnerRace, Severity: 0.5}
		rec, pump := goldenCapture(t, 11, 0.15, cfg)
		rep := feature.DetectRecord(rec, feature.MachineSpec{RotorHz: pump.RotorHz()})
		buf, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		return buf
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("fault report not deterministic:\n%s\n%s", a, b)
	}
}
