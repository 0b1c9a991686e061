package physics

import (
	"encoding/json"
	"math"
	"testing"
)

// TestBearingDefectFrequencies pins the defect frequency formulas on
// the default 6205 geometry at a 1 Hz shaft: the textbook multiples.
func TestBearingDefectFrequencies(t *testing.T) {
	g := DefaultBearing
	cases := []struct {
		defect BearingDefect
		want   float64
	}{
		{DefectOuterRace, 3.5848},
		{DefectInnerRace, 5.4152},
		{DefectBall, 2.3564},
		{DefectCage, 0.3983},
	}
	for _, c := range cases {
		got := g.DefectHz(c.defect, 1)
		if math.Abs(got-c.want) > 5e-4 {
			t.Errorf("%v multiple = %.4f, want %.4f", c.defect, got, c.want)
		}
	}
	// The zero geometry must behave as the default.
	var zero BearingGeometry
	if zero.BPFO(119) != g.BPFO(119) {
		t.Errorf("zero geometry BPFO %.3f != default %.3f", zero.BPFO(119), g.BPFO(119))
	}
	// BPFO + BPFI = N × shaft for any geometry.
	if sum := g.BPFO(119) + g.BPFI(119); math.Abs(sum-9*119) > 1e-9 {
		t.Errorf("BPFO+BPFI = %.6f, want %.6f", sum, 9*119.0)
	}
}

// TestBearingMatchesCWRUDriveEnd6205 pins DefaultBearing to figures the
// repository did not compute: the defect multiples of shaft speed that
// the Case Western Reserve University Bearing Data Center publishes for
// the drive-end bearing of its test rig, a 6205-2RS JEM SKF. The centre
// quotes the rolling-element frequency as twice the ball spin
// frequency, 2 × BSF.
func TestBearingMatchesCWRUDriveEnd6205(t *testing.T) {
	g := DefaultBearing
	cases := []struct {
		name      string
		got, want float64
	}{
		{"BPFI", g.BPFI(1), 5.4152},
		{"BPFO", g.BPFO(1), 3.5848},
		{"FTF", g.FTF(1), 0.39828},
		{"rolling element (2 × BSF)", 2 * g.BSF(1), 4.7135},
	}
	for _, c := range cases {
		if rel := math.Abs(c.got-c.want) / c.want; rel > 1e-4 {
			t.Errorf("%s multiple = %.5f, CWRU publishes %.5f (relative error %.1e)", c.name, c.got, c.want, rel)
		}
	}
}

// TestFaultClassText pins the wire names and the roundtrip.
func TestFaultClassText(t *testing.T) {
	want := map[FaultClass]string{
		FaultNone:         "none",
		FaultBearing:      "bearing",
		FaultImbalance:    "imbalance",
		FaultMisalignment: "misalignment",
		FaultLooseness:    "looseness",
	}
	for class, name := range want {
		b, err := json.Marshal(class)
		if err != nil {
			t.Fatal(err)
		}
		if string(b) != `"`+name+`"` {
			t.Errorf("marshal %d = %s, want %q", int(class), b, name)
		}
		var back FaultClass
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != class {
			t.Errorf("roundtrip %v -> %v", class, back)
		}
	}
	var bad FaultClass
	if err := bad.UnmarshalText([]byte("wobble")); err == nil {
		t.Error("unknown class name should not parse")
	}
}

// TestHarmonicToneIndices pins the spec layout fault injection relies
// on: the first two tones of every axis are the 1× and 2× rotor
// harmonics.
func TestHarmonicToneIndices(t *testing.T) {
	p := NewPump(PumpConfig{ID: 1, Seed: 7})
	spec := p.spec(3.25)
	for axis := 0; axis < 3; axis++ {
		if len(spec.Tones[axis]) < 2 {
			t.Fatalf("axis %d has %d tones", axis, len(spec.Tones[axis]))
		}
		if f := spec.Tones[axis][0].Freq; math.Abs(f-p.RotorHz()) > 1e-12 {
			t.Errorf("axis %d tone 0 at %.3f Hz, want rotor %.3f", axis, f, p.RotorHz())
		}
		if f := spec.Tones[axis][1].Freq; math.Abs(f-2*p.RotorHz()) > 1e-12 {
			t.Errorf("axis %d tone 1 at %.3f Hz, want 2× rotor %.3f", axis, f, 2*p.RotorHz())
		}
	}
}

// TestFaultyPumpZeroFaultIdentity proves a FaultyPump with no injected
// fault renders bit-identically to its base pump — the refactored
// render path changes nothing.
func TestFaultyPumpZeroFaultIdentity(t *testing.T) {
	base := NewPump(PumpConfig{ID: 3, Seed: 99})
	for _, fault := range []FaultConfig{
		{},
		{Class: FaultBearing, Severity: 0},
		{Class: FaultImbalance, Severity: -2},
	} {
		fp := NewFaultyPump(base, fault)
		bx, by, bz := base.Acceleration(12.5, 4000, 512)
		fx, fy, fz := capture(fp, 12.5, 4000, 512)
		for i := range bx {
			if bx[i] != fx[i] || by[i] != fy[i] || bz[i] != fz[i] {
				t.Fatalf("fault %+v: sample %d diverged", fault, i)
			}
		}
	}
}

// TestFaultyPumpDeterminism: repeated captures of the same (seed,
// time) are bit-identical for every fault class.
func TestFaultyPumpDeterminism(t *testing.T) {
	base := NewPump(PumpConfig{ID: 5, Seed: 1234})
	for _, class := range FaultClasses[1:] {
		fp := NewFaultyPump(base, FaultConfig{Class: class, Severity: 0.7})
		ax1, ay1, az1 := capture(fp, 7.75, 4000, 1024)
		ax2, ay2, az2 := capture(fp, 7.75, 4000, 1024)
		for i := range ax1 {
			if ax1[i] != ax2[i] || ay1[i] != ay2[i] || az1[i] != az2[i] {
				t.Fatalf("%v: repeat capture diverged at sample %d", class, i)
			}
		}
	}
}

// TestFaultyPumpSpecSignatures checks each injector leaves its
// textbook signature in the spectral recipe.
func TestFaultyPumpSpecSignatures(t *testing.T) {
	base := NewPump(PumpConfig{ID: 2, Seed: 42})
	day := 4.5
	healthy := base.spec(day)
	rotor := base.RotorHz()

	amp := func(s VibrationSpec, axis int, freq float64) float64 {
		var sum float64
		for _, tone := range s.Tones[axis] {
			if math.Abs(tone.Freq-freq) < 1e-6 {
				sum += tone.Amp
			}
		}
		return sum
	}

	t.Run("imbalance", func(t *testing.T) {
		s := NewFaultyPump(base, FaultConfig{Class: FaultImbalance, Severity: 1}).Spec(day)
		if got, want := amp(s, 0, rotor), amp(healthy, 0, rotor)*7; math.Abs(got-want) > 1e-12 {
			t.Errorf("radial 1× = %g, want %g", got, want)
		}
		if got := amp(s, 0, 2*rotor); got != amp(healthy, 0, 2*rotor) {
			t.Errorf("radial 2× moved: %g", got)
		}
	})
	t.Run("misalignment-angular", func(t *testing.T) {
		s := NewFaultyPump(base, FaultConfig{Class: FaultMisalignment, Severity: 1}).Spec(day)
		if got, want := amp(s, 0, 2*rotor), amp(healthy, 0, 2*rotor)*8; math.Abs(got-want) > 1e-12 {
			t.Errorf("radial 2× = %g, want %g", got, want)
		}
		if got, want := amp(s, 2, 2*rotor), amp(healthy, 2, 2*rotor)*10; math.Abs(got-want) > 1e-12 {
			t.Errorf("axial 2× = %g, want %g", got, want)
		}
	})
	t.Run("looseness", func(t *testing.T) {
		s := NewFaultyPump(base, FaultConfig{Class: FaultLooseness, Severity: 1}).Spec(day)
		if amp(s, 0, 0.5*rotor) <= 0 || amp(s, 0, 1.5*rotor) <= 0 {
			t.Error("missing half-order subharmonics")
		}
		if amp(healthy, 0, 0.5*rotor) != 0 {
			t.Error("healthy spec already has a 0.5× tone at low wear")
		}
	})
	t.Run("bearing", func(t *testing.T) {
		fp := NewFaultyPump(base, FaultConfig{Class: FaultBearing, Severity: 1, Defect: DefectOuterRace})
		s := fp.Spec(day)
		fc := DefaultResonanceHz
		fd := DefaultBearing.BPFO(rotor)
		if amp(s, 0, float64(fc)) <= 0 {
			t.Error("missing resonance carrier")
		}
		for _, side := range []float64{float64(fc) - fd, float64(fc) + fd} {
			if amp(s, 0, side) <= 0 {
				t.Errorf("missing sideband at %.1f Hz", side)
			}
		}
	})
}

// capture synthesizes one measurement of f into freshly allocated
// buffers. A FaultyPump has no allocating Acceleration of its own: the
// one it inherits renders its base pump.
func capture(f *FaultyPump, serviceDays, fs float64, k int) (ax, ay, az []float64) {
	ax, ay, az = make([]float64, k), make([]float64, k), make([]float64, k)
	f.AccelerationInto(ax, ay, az, serviceDays, fs)
	return ax, ay, az
}

// TestFaultyPumpIntoMatchesAlloc pins AccelerationInto into dirty,
// reused buffers to the same capture into freshly allocated ones:
// every sample is overwritten, none accumulated.
func TestFaultyPumpIntoMatchesAlloc(t *testing.T) {
	base := NewPump(PumpConfig{ID: 9, Seed: 77})
	fp := NewFaultyPump(base, FaultConfig{Class: FaultBearing, Severity: 0.5, Defect: DefectInnerRace})
	ax, ay, az := capture(fp, 2.25, 4000, 768)
	bx := make([]float64, 768)
	by := make([]float64, 768)
	bz := make([]float64, 768)
	for i := range bx {
		bx[i], by[i], bz[i] = 1e9, -1e9, math.NaN()
	}
	fp.AccelerationInto(bx, by, bz, 2.25, 4000)
	for i := range ax {
		if ax[i] != bx[i] || ay[i] != by[i] || az[i] != bz[i] {
			t.Fatalf("Into diverged at sample %d", i)
		}
	}
}
