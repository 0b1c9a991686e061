package vibepm

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestSaveLoadModelRoundtrip(t *testing.T) {
	eng, ds := fitEngine(t, 20)
	age := ageFuncFor(ds)
	if _, err := eng.LearnLifetimeModels(age); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}

	// A fresh engine with empty stores must classify identically after
	// loading the model.
	fresh := New(Options{})
	if err := fresh.LoadModel(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	if !fresh.Fitted() {
		t.Fatal("loaded engine not fitted")
	}
	b1, _ := eng.Boundary()
	b2, err := fresh.Boundary()
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Fatalf("boundary changed: %g vs %g", b1, b2)
	}
	for i, lr := range ds.ValidLabelled() {
		if i >= 20 {
			break
		}
		z1, _, err := eng.Classify(lr.Record)
		if err != nil {
			t.Fatal(err)
		}
		z2, _, err := fresh.Classify(lr.Record)
		if err != nil {
			t.Fatal(err)
		}
		if z1 != z2 {
			t.Fatalf("classification diverged after reload: %v vs %v", z1, z2)
		}
		d1, _ := eng.Da(lr.Record)
		d2, _ := fresh.Da(lr.Record)
		if d1 != d2 {
			t.Fatalf("Da diverged: %g vs %g", d1, d2)
		}
	}
	// Lifetime models survive too.
	m1, err := eng.Models()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := fresh.Models()
	if err != nil {
		t.Fatal(err)
	}
	if len(m1.Models) != len(m2.Models) {
		t.Fatal("models lost in roundtrip")
	}
	for i := range m1.Models {
		if m1.Models[i].Slope != m2.Models[i].Slope {
			t.Fatal("model slope changed")
		}
	}
}

// TestLoadModelDropsTheDensities: a model keeps the boundary, not the
// densities it was located between, so a fitted engine that loads a
// model has none left to report (they were its own fit's).
func TestLoadModelDropsTheDensities(t *testing.T) {
	eng, _ := fitEngine(t, 22)
	if _, err := eng.Densities(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := eng.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	if err := eng.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Densities(); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("Densities after LoadModel: %v", err)
	}
}

// TestLoadModelInstallsLiveBaseline: an engine restored from a model
// file folds D_a at ingest, as one that ran Fit does — the first read
// of a fresh record is a memo hit, not a PSD on the read path.
func TestLoadModelInstallsLiveBaseline(t *testing.T) {
	trained, ds := fitEngine(t, 22)
	var buf bytes.Buffer
	if err := trained.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	eng := New(Options{})
	if err := eng.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	rec := ds.Capture(0, 39.75)
	if stored, err := eng.Ingest(rec); !stored || err != nil {
		t.Fatalf("Ingest: stored=%v err=%v", stored, err)
	}
	h0, m0 := liveLookups()
	got, err := eng.Da(rec)
	if err != nil {
		t.Fatal(err)
	}
	h1, m1 := liveLookups()
	if h1-h0 != 1 || m1-m0 != 0 {
		t.Errorf("Da of a just-ingested record: %d hits, %d misses, want 1, 0", h1-h0, m1-m0)
	}
	base, err := eng.Baseline()
	if err != nil {
		t.Fatal(err)
	}
	if want, err := base.Da(rec); err != nil || got != want {
		t.Errorf("live Da = %v, baseline.Da = %v (err %v)", got, want, err)
	}
}

// TestLoadedModelClassifiesWithoutKeeping: an edge engine — empty
// store, loaded model — classifying a stream of fresh captures it never
// stores keeps none of them: the memo holds only stored records.
func TestLoadedModelClassifiesWithoutKeeping(t *testing.T) {
	trained, ds := fitEngine(t, 23)
	var buf bytes.Buffer
	if err := trained.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	edge := New(Options{})
	if err := edge.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	base, _ := edge.Baseline()
	for i := range 1000 {
		rec := ds.Capture(i%2, 0.5+float64(i)*0.039)
		if _, _, err := edge.Classify(rec); err != nil {
			t.Fatal(err)
		}
		got, err := edge.Da(rec)
		want, wantErr := base.Da(rec)
		if got != want || (err == nil) != (wantErr == nil) {
			t.Fatalf("capture %d: Da (%g, %v), baseline.Da (%g, %v)", i, got, err, want, wantErr)
		}
	}
	if n := edge.Live().Size(); n != 0 {
		t.Fatalf("the memo holds %d captures the engine never stored", n)
	}
}

// TestLoadModelKeepsEngineOptions: the engine's options are what its
// live state folds with, so loading a model fitted with others leaves
// them — the fold would otherwise extract a raw variant nothing reads.
func TestLoadModelKeepsEngineOptions(t *testing.T) {
	trained, _ := fitEngine(t, 24)
	var buf bytes.Buffer
	if err := trained.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	opts := Options{Harmonic: HarmonicOptions{NumPeaks: 12}}
	eng := New(opts)
	if err := eng.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	if eng.opts != opts {
		t.Fatalf("options after LoadModel = %+v, want the engine's %+v", eng.opts, opts)
	}
}

// TestLoadModelFromBeforeOptionsShrank: testdata/model_pr24.json was
// written by an older engine (fitEngine(t, 47), lifetime models
// learned), whose Options still carried OutlierBandwidth,
// SmoothingWindowDays, RUL and LabelMatchToleranceDays. Its numeric
// fields follow today's fit: they were rewritten once when the record
// spectrum moved to the real-input transform and its rounding moved,
// and every retired key was kept. It loads, and scores and classifies
// every labelled record exactly as today's engine fitted on the same
// corpus does.
func TestLoadModelFromBeforeOptionsShrank(t *testing.T) {
	path := filepath.Join("testdata", "model_pr24.json")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"OutlierBandwidth", "SmoothingWindowDays", "RUL", "LabelMatchToleranceDays"} {
		if !bytes.Contains(raw, []byte(`"`+key+`":`)) {
			t.Fatalf("%s does not carry the retired option %s", path, key)
		}
	}
	old := New(Options{})
	if err := old.LoadModelFile(path); err != nil {
		t.Fatal(err)
	}
	eng, ds := fitEngine(t, 47)
	b1, _ := eng.Boundary()
	if b2, err := old.Boundary(); err != nil || b1 != b2 {
		t.Fatalf("boundary %v (err %v), fitted today %v", b2, err, b1)
	}
	for _, lr := range ds.ValidLabelled() {
		z1, p1, err1 := eng.Classify(lr.Record)
		z2, p2, err2 := old.Classify(lr.Record)
		d1, _ := eng.Da(lr.Record)
		d2, _ := old.Da(lr.Record)
		if err1 != nil || err2 != nil || z1 != z2 || !reflect.DeepEqual(p1, p2) || d1 != d2 {
			t.Fatalf("pump %d day %g: loaded (%v, %v, %g, %v), fitted today (%v, %v, %g, %v)",
				lr.Record.PumpID, lr.Record.ServiceDays, z2, p2, d2, err2, z1, p1, d1, err1)
		}
	}
	if m, err := old.Models(); err != nil || len(m.Models) == 0 {
		t.Fatalf("lifetime models lost: %v, %v", m, err)
	}
}

func TestSaveModelFileRoundtrip(t *testing.T) {
	eng, _ := fitEngine(t, 21)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := eng.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	fresh := New(Options{})
	if err := fresh.LoadModelFile(path); err != nil {
		t.Fatal(err)
	}
	if !fresh.Fitted() {
		t.Fatal("loaded engine not fitted")
	}
	if err := fresh.LoadModelFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("want error for missing file")
	}
}

// TestSaveModelFileKeepsTheOldModelOnFailure: a save that cannot
// produce a model must not have touched the one already at path.
func TestSaveModelFileKeepsTheOldModelOnFailure(t *testing.T) {
	eng, _ := fitEngine(t, 21)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.json")
	if err := eng.SaveModelFile(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := New(Options{}).SaveModelFile(path); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v, want ErrNotFitted", err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, before) {
		t.Fatalf("the failed save left %d bytes where the %d-byte model was", len(after), len(before))
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("the failed save left %d files behind (err %v), want the model alone", len(entries), err)
	}
}

func TestSaveModelUnfitted(t *testing.T) {
	eng := New(Options{})
	var buf bytes.Buffer
	if err := eng.SaveModel(&buf); !errors.Is(err, ErrNotFitted) {
		t.Fatalf("err = %v", err)
	}
}

// TestLoadModelErrors: a model that cannot be served is refused, with
// an error naming what is wrong, and nothing is installed. The baseline
// rows start from testdata/model_pr24.json, which loads, and break one
// field: a baseline whose PSDVar does not match PSDMean would panic in
// dsp.MahalanobisDiag on the first vector score.
func TestLoadModelErrors(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "model_pr24.json"))
	if err != nil {
		t.Fatal(err)
	}
	// broken is the saved model with mutate applied.
	broken := func(mutate func(*ModelState)) string {
		var state ModelState
		if err := json.Unmarshal(raw, &state); err != nil {
			t.Fatal(err)
		}
		mutate(&state)
		out, err := json.Marshal(state)
		if err != nil {
			t.Fatal(err)
		}
		return string(out)
	}
	for _, tc := range []struct {
		name, model string
		want        string // a substring of the error; "" is any error
		is          error
	}{
		{name: "decode", model: "{garbage", want: "decode model"},
		{name: "version", model: `{"version":99}`, is: ErrModelVersion},
		{name: "no baseline", model: `{"version":1}`, want: "no baseline"},
		{name: "classifier state", model: `{"version":1,"baseline":{"Harmonic":{"Peaks":[{"Index":1,"Freq":100,"Value":1}],"BinHz":2},"PMax":1,"FMax":1000,"PSDMean":[1],"PSDVar":[1],"Opt":{}},"classifier":{"zones":[1],"mean":{},"std":{},"prior":{}}}`, want: "classifier"},
		{name: "PSDVar shorter than PSDMean", model: broken(func(s *ModelState) { s.Baseline.PSDVar = s.Baseline.PSDVar[:10] }), want: "PSDVar has 10 bins, PSDMean 1024"},
		{name: "zero variance", model: broken(func(s *ModelState) { s.Baseline.PSDVar[7] = 0 }), want: "PSDVar[7] = 0"},
		{name: "negative variance", model: broken(func(s *ModelState) { s.Baseline.PSDVar[0] = -1e-9 }), want: "PSDVar[0] = -1e-09"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := New(Options{})
			err := eng.LoadModel(strings.NewReader(tc.model))
			switch {
			case err == nil:
				t.Fatal("loaded, want an error")
			case tc.is != nil && !errors.Is(err, tc.is):
				t.Fatalf("err = %v, want %v", err, tc.is)
			case !strings.Contains(err.Error(), tc.want):
				t.Fatalf("err = %v, want it to name %q", err, tc.want)
			}
			if eng.Fitted() {
				t.Fatal("a refused model left the engine fitted")
			}
		})
	}
}
