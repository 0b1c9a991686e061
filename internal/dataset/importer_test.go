package dataset

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"vibepm/internal/feature"
	"vibepm/internal/mems"
	"vibepm/internal/physics"
)

func TestImportCSVLayouts(t *testing.T) {
	const k = 8
	mk := func(layout string) string {
		var b strings.Builder
		for i := 0; i < k; i++ {
			tt := float64(i) / 4000
			x := 0.01 * float64(i)
			switch layout {
			case "x":
				fmt.Fprintf(&b, "%g\n", x)
			case "tx":
				fmt.Fprintf(&b, "%g,%g\n", tt, x)
			case "xyz":
				fmt.Fprintf(&b, "%g;%g;%g\n", x, x/2, x/4)
			case "txyz":
				fmt.Fprintf(&b, "%g\t%g\t%g\t%g\n", tt, x, x/2, x/4)
			}
		}
		return b.String()
	}
	for _, tc := range []struct {
		layout  string
		opt     ImportOptions
		wantFs  float64
		hasYZ   bool
		timeCol bool
	}{
		{"x", ImportOptions{SampleRateHz: 4000, SamplesPerRecord: k}, 4000, false, false},
		{"tx", ImportOptions{SamplesPerRecord: k}, 4000, false, true},
		{"xyz", ImportOptions{SampleRateHz: 4000, SamplesPerRecord: k}, 4000, true, false},
		{"txyz", ImportOptions{SamplesPerRecord: k}, 4000, true, true},
	} {
		recs, err := ImportCSV(strings.NewReader(mk(tc.layout)), tc.opt)
		if err != nil {
			t.Fatalf("%s: %v", tc.layout, err)
		}
		if len(recs) != 1 {
			t.Fatalf("%s: %d records", tc.layout, len(recs))
		}
		rec := recs[0]
		if math.Abs(rec.SampleRateHz-tc.wantFs) > 1e-6*tc.wantFs {
			t.Fatalf("%s: fs %g, want %g", tc.layout, rec.SampleRateHz, tc.wantFs)
		}
		if rec.Samples() != k {
			t.Fatalf("%s: %d samples", tc.layout, rec.Samples())
		}
		// x round-trips through quantization to within half a count.
		for i, c := range rec.Raw[0] {
			want := 0.01 * float64(i)
			if got := float64(c) * rec.ScaleG; math.Abs(got-want) > rec.ScaleG {
				t.Fatalf("%s: x[%d] = %g, want %g", tc.layout, i, got, want)
			}
		}
		yEnergy := 0.0
		for _, c := range rec.Raw[1] {
			yEnergy += float64(c) * float64(c)
		}
		if tc.hasYZ && yEnergy == 0 {
			t.Fatalf("%s: y axis silent", tc.layout)
		}
		if !tc.hasYZ && yEnergy != 0 {
			t.Fatalf("%s: y axis should be zero-padded", tc.layout)
		}
	}
}

func TestImportCSVHeaderCommentsSegmentation(t *testing.T) {
	var b strings.Builder
	b.WriteString("# lab export\n")
	b.WriteString("time, accel_x\n")
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&b, "%g,%g\n", float64(i)/1000, math.Sin(float64(i)))
	}
	recs, err := ImportCSV(strings.NewReader(b.String()), ImportOptions{
		PumpID: 7, SamplesPerRecord: 4, StartServiceDays: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 10 samples → two full records of 4, tail of 2 dropped.
	if len(recs) != 2 {
		t.Fatalf("%d records, want 2", len(recs))
	}
	if recs[0].PumpID != 7 || recs[1].PumpID != 7 {
		t.Fatalf("pump ids %d/%d", recs[0].PumpID, recs[1].PumpID)
	}
	if recs[0].ServiceDays != 2 {
		t.Fatalf("first record at %g days", recs[0].ServiceDays)
	}
	step := 4.0 / 1000 / 86400
	if math.Abs(recs[1].ServiceDays-(2+step)) > 1e-12 {
		t.Fatalf("second record at %g days, want %g", recs[1].ServiceDays, 2+step)
	}
}

func TestImportCSVRejects(t *testing.T) {
	for _, tc := range []struct {
		name, csv string
		opt       ImportOptions
	}{
		{"empty", "", ImportOptions{SampleRateHz: 100, SamplesPerRecord: 2}},
		{"short", "0.1\n", ImportOptions{SampleRateHz: 100, SamplesPerRecord: 2}},
		{"nan", "0.1\nNaN\n", ImportOptions{SampleRateHz: 100, SamplesPerRecord: 2}},
		{"inf", "0.1\n+Inf\n", ImportOptions{SampleRateHz: 100, SamplesPerRecord: 2}},
		{"mid-file garbage", "0.1\nabc\n0.2\n", ImportOptions{SampleRateHz: 100, SamplesPerRecord: 2}},
		{"ragged", "0.1,0.2\n0.3\n", ImportOptions{SampleRateHz: 100, SamplesPerRecord: 2}},
		{"too many columns", "1,2,3,4,5\n1,2,3,4,5\n", ImportOptions{SampleRateHz: 100, SamplesPerRecord: 2}},
		{"no rate no time", "0.1\n0.2\n", ImportOptions{SamplesPerRecord: 2}},
		{"time backwards", "0.0,1\n0.2,1\n0.1,1\n1,1\n", ImportOptions{SamplesPerRecord: 2}},
		{"time constant", "0.5,1\n0.5,1\n", ImportOptions{SamplesPerRecord: 2}},
		{"two headers", "a,b\nc,d\n0.1,0.2\n0.2,0.3\n", ImportOptions{SamplesPerRecord: 2}},
	} {
		if _, err := ImportCSV(strings.NewReader(tc.csv), tc.opt); !errors.Is(err, ErrImport) {
			t.Fatalf("%s: err = %v, want ErrImport", tc.name, err)
		}
	}
}

func TestImportCSVClampsToInt16(t *testing.T) {
	// An explicit (too-small) scale forces clamping instead of overflow.
	recs, err := ImportCSV(strings.NewReader("5\n-5\n"), ImportOptions{
		SampleRateHz: 100, SamplesPerRecord: 2, ScaleG: 1e-5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if recs[0].Raw[0][0] != math.MaxInt16 || recs[0].Raw[0][1] != math.MinInt16 {
		t.Fatalf("clamp failed: %d, %d", recs[0].Raw[0][0], recs[0].Raw[0][1])
	}
}

// TestImportRoundTripDetectsFault proves the adapter's purpose: a fault
// waveform exported to CSV (as an external lab dataset would be) flows
// through ImportCSV and classifies identically to the native capture
// path.
func TestImportRoundTripDetectsFault(t *testing.T) {
	const (
		seed = int64(42)
		k    = 1024
		fs   = 4000.0
		day  = 120.0
	)
	base := physics.NewPump(physics.PumpConfig{ID: 1, Seed: seed, LifeDays: 600})
	faulty := physics.NewFaultyPump(base, physics.FaultConfig{
		Class: physics.FaultImbalance, Severity: 1.0,
	})
	sensor, err := mems.New(mems.Config{Seed: seed*7 + 1, SampleRateHz: fs})
	if err != nil {
		t.Fatal(err)
	}
	cap := sensor.Measure(faulty, day, k)

	// Export the capture as a 4-column CSV in g, like a lab rig would.
	var b strings.Builder
	b.WriteString("time,x,y,z\n")
	for i := 0; i < k; i++ {
		fmt.Fprintf(&b, "%.9f,%.6f,%.6f,%.6f\n", float64(i)/fs,
			float64(cap.Raw[0][i])*cap.ScaleG,
			float64(cap.Raw[1][i])*cap.ScaleG,
			float64(cap.Raw[2][i])*cap.ScaleG)
	}

	recs, err := ImportCSV(strings.NewReader(b.String()), ImportOptions{
		PumpID: 1, SamplesPerRecord: k,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("%d records", len(recs))
	}
	rec := recs[0]
	if math.Abs(rec.SampleRateHz-fs) > 1 {
		t.Fatalf("inferred fs %g", rec.SampleRateHz)
	}
	rep := feature.DetectRecord(rec, feature.MachineSpec{RotorHz: base.RotorHz()})
	if rep.Class != physics.FaultImbalance {
		t.Fatalf("imported waveform classified %v (confidence %g), want imbalance", rep.Class, rep.Confidence)
	}
}

func FuzzImportRecord(f *testing.F) {
	f.Add([]byte("time,x\n0.000,0.01\n0.00025,0.02\n0.0005,0.03\n0.00075,0.04\n"))
	f.Add([]byte("0.1\n0.2\n0.3\n0.4\n"))
	f.Add([]byte("1;2;3\n4;5;6\n"))
	f.Add([]byte("# comment\n\n0.0\t0.1\t0.2\t0.3\n"))
	f.Add([]byte("garbage"))
	f.Add([]byte("NaN\nInf\n"))
	f.Add([]byte("1,2\n3\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Reject-or-parse invariant: arbitrary input either parses into
		// well-formed records or returns ErrImport — never panics, never
		// yields a malformed record.
		recs, err := ImportCSV(strings.NewReader(string(data)), ImportOptions{
			SampleRateHz: 4000, SamplesPerRecord: 4,
		})
		if err != nil {
			if !errors.Is(err, ErrImport) {
				t.Fatalf("non-import error: %v", err)
			}
			return
		}
		for _, rec := range recs {
			if rec.Samples() != 4 {
				t.Fatalf("record with %d samples", rec.Samples())
			}
			if rec.SampleRateHz != 4000 || rec.ScaleG <= 0 {
				t.Fatalf("bad metadata: fs=%g scale=%g", rec.SampleRateHz, rec.ScaleG)
			}
			for axis := 0; axis < 3; axis++ {
				if len(rec.Raw[axis]) != 4 {
					t.Fatalf("axis %d has %d samples", axis, len(rec.Raw[axis]))
				}
			}
		}
	})
}
