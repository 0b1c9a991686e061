package physics

import (
	"math"
	"testing"
	"testing/quick"

	"vibepm/internal/dsp"
)

func TestZoneForDegradation(t *testing.T) {
	cases := []struct {
		d    float64
		want Zone
	}{
		{0, ZoneA}, {0.24, ZoneA}, {0.25, ZoneB}, {0.44, ZoneB},
		{0.45, ZoneC}, {0.69, ZoneC}, {0.70, ZoneD}, {1.5, ZoneD},
	}
	for _, c := range cases {
		if got := ZoneForDegradation(c.d); got != c.want {
			t.Errorf("ZoneForDegradation(%g) = %v, want %v", c.d, got, c.want)
		}
	}
}

func TestZoneMergedAndStrings(t *testing.T) {
	if ZoneB.Merged() != MergedBC || ZoneC.Merged() != MergedBC {
		t.Fatal("B and C must merge to BC")
	}
	if ZoneA.Merged() != MergedA || ZoneD.Merged() != MergedD {
		t.Fatal("A/D merge identity broken")
	}
	if ZoneUnknown.Merged() != MergedUnknown {
		t.Fatal("unknown must stay unknown")
	}
	if ZoneA.String() != "Zone A" || MergedBC.String() != "Zone BC" {
		t.Fatalf("strings: %q %q", ZoneA.String(), MergedBC.String())
	}
	if Zone(99).String() == "" || MergedZone(99).String() == "" {
		t.Fatal("out-of-range strings must be non-empty")
	}
}

func TestDegradationMonotone(t *testing.T) {
	p := NewPump(PumpConfig{ID: 1, Model: ModelII, Seed: 42})
	prev := -1.0
	for day := 0.0; day <= 400; day += 5 {
		d := p.DegradationAt(day)
		if d < prev {
			t.Fatalf("degradation decreased at day %g", day)
		}
		prev = d
	}
}

func TestModelLifetimesDiffer(t *testing.T) {
	// Model II must wear out roughly 3× faster than Model I.
	p1 := NewPump(PumpConfig{ID: 0, Model: ModelI, LifeDays: 620, Seed: 1})
	p2 := NewPump(PumpConfig{ID: 1, Model: ModelII, LifeDays: 190, Seed: 1})
	ratio := p1.LifeDays() / p2.LifeDays()
	if ratio < 2.5 || ratio > 4 {
		t.Fatalf("life ratio %.2f", ratio)
	}
	if ModelI.String() != "Model I" || ModelII.String() != "Model II" {
		t.Fatal("model strings")
	}
	if LifetimeModel(9).String() == "" {
		t.Fatal("unknown model string empty")
	}
	if LifetimeModel(9).DefaultLifeDays() != ModelI.DefaultLifeDays() {
		t.Fatal("unknown model should default like Model I")
	}
}

func TestInitialAgeShiftsZone(t *testing.T) {
	young := NewPump(PumpConfig{ID: 0, Model: ModelI, LifeDays: 600, Seed: 2})
	old := NewPump(PumpConfig{ID: 0, Model: ModelI, LifeDays: 600, InitialAgeDays: 450, Seed: 2})
	if young.ZoneAt(0) != ZoneA {
		t.Fatalf("new pump starts in %v", young.ZoneAt(0))
	}
	if old.ZoneAt(0) == ZoneA {
		t.Fatalf("aged pump should not start in Zone A (d=%.2f)", old.DegradationAt(0))
	}
}

func TestReplaceResetsDegradation(t *testing.T) {
	p := NewPump(PumpConfig{ID: 3, Model: ModelII, LifeDays: 180, InitialAgeDays: 100, Seed: 3})
	before := p.DegradationAt(120)
	p.Replace(121)
	after := p.DegradationAt(122)
	if after >= before {
		t.Fatalf("replacement did not reset wear: %.3f -> %.3f", before, after)
	}
	if after > 0.05 {
		t.Fatalf("fresh unit wear %.3f", after)
	}
	// History before the replacement is unchanged.
	if got := p.DegradationAt(120); !almostEqual(got, before, 1e-12) {
		t.Fatal("replacement rewrote history")
	}
	if got := p.resets; len(got) != 1 || got[0] != 121 {
		t.Fatalf("replacements = %v", got)
	}
}

func TestRemainingDays(t *testing.T) {
	p := NewPump(PumpConfig{ID: 4, Model: ModelI, LifeDays: 600, Seed: 4})
	// At service time 0 with no initial age, RUL = 0.7 * 600 = 420 days.
	if got := p.RemainingDays(0); !almostEqual(got, 420, 1e-9) {
		t.Fatalf("RUL at birth = %g", got)
	}
	// RUL declines one day per day.
	if got := p.RemainingDays(100); !almostEqual(got, 320, 1e-9) {
		t.Fatalf("RUL at day 100 = %g", got)
	}
	// Past the D boundary RUL is negative.
	if got := p.RemainingDays(500); got >= 0 {
		t.Fatalf("RUL past boundary = %g", got)
	}
}

func TestAccelerationDeterministic(t *testing.T) {
	p := NewPump(PumpConfig{ID: 5, Seed: 5})
	x1, y1, z1 := p.Acceleration(10, 4096, 256)
	x2, y2, z2 := p.Acceleration(10, 4096, 256)
	for i := range x1 {
		if x1[i] != x2[i] || y1[i] != y2[i] || z1[i] != z2[i] {
			t.Fatal("acceleration not deterministic")
		}
	}
}

func TestAccelerationGravityBias(t *testing.T) {
	p := NewPump(PumpConfig{ID: 6, Seed: 6})
	_, _, z := p.Acceleration(5, 4096, 1024)
	if math.Abs(dsp.Mean(z)-1) > 0.05 {
		t.Fatalf("z mean %.3f, want ≈1 g", dsp.Mean(z))
	}
	x, _, _ := p.Acceleration(5, 4096, 1024)
	if math.Abs(dsp.Mean(x)) > 0.05 {
		t.Fatalf("x mean %.3f, want ≈0", dsp.Mean(x))
	}
}

func TestAccelerationSpectrumPeaksAtRotor(t *testing.T) {
	p := NewPump(PumpConfig{ID: 7, Seed: 7, RotorHz: 120})
	x, _, _ := p.Acceleration(1, 4096, 1024)
	freq, psd, err := dsp.PeriodogramInto(nil, nil, x, 4096)
	if err != nil {
		t.Fatal(err)
	}
	best := 0
	for k := range psd {
		if psd[k] > psd[best] {
			best = k
		}
	}
	if math.Abs(freq[best]-120) > 8 {
		t.Fatalf("dominant frequency %.1f Hz, want ≈120", freq[best])
	}
}

func TestWornPumpHasMoreHighFrequencyPower(t *testing.T) {
	healthy := NewPump(PumpConfig{ID: 8, LifeDays: 600, Seed: 8})
	worn := NewPump(PumpConfig{ID: 8, LifeDays: 600, InitialAgeDays: 540, Seed: 8})
	fs := 4096.0
	hfHealthy, hfWorn := 0.0, 0.0
	// Average a few measurements to smooth the per-measurement gain.
	for i := 0; i < 5; i++ {
		day := float64(i)
		hx, _, _ := healthy.Acceleration(day, fs, 1024)
		wx, _, _ := worn.Acceleration(day, fs, 1024)
		fh, ph, _ := dsp.PeriodogramInto(nil, nil, hx, fs)
		fw, pw, _ := dsp.PeriodogramInto(nil, nil, wx, fs)
		hfHealthy += dsp.BandPower(fh, ph, 800, 2000)
		hfWorn += dsp.BandPower(fw, pw, 800, 2000)
	}
	if hfWorn < 3*hfHealthy {
		t.Fatalf("worn HF power %.6g not ≫ healthy %.6g", hfWorn, hfHealthy)
	}
}

func TestTemperatureUncorrelatedWithWear(t *testing.T) {
	healthy := NewPump(PumpConfig{ID: 9, LifeDays: 600, Seed: 9})
	worn := NewPump(PumpConfig{ID: 9, LifeDays: 600, InitialAgeDays: 540, Seed: 9})
	var sumH, sumW float64
	n := 50
	for i := 0; i < n; i++ {
		day := float64(i)
		sumH += healthy.TemperatureAt(day)
		sumW += worn.TemperatureAt(day)
	}
	// Same distribution regardless of health: means within 1 °C.
	if math.Abs(sumH/float64(n)-sumW/float64(n)) > 1 {
		t.Fatalf("temperature leaks health: %.2f vs %.2f", sumH/float64(n), sumW/float64(n))
	}
}

func TestNewFleetDefaults(t *testing.T) {
	f := NewFleet(FleetConfig{Seed: 77})
	if len(f.Pumps) != 12 {
		t.Fatalf("fleet size %d", len(f.Pumps))
	}
	for i, p := range f.Pumps {
		if p.ID() != i {
			t.Fatalf("pump %d has id %d", i, p.ID())
		}
		if p.Model() != PaperModelAssignment[i] {
			t.Fatalf("pump %d model %v", i, p.Model())
		}
	}
	if f.Pump(-1) != nil || f.Pump(99) != nil {
		t.Fatal("out-of-range Pump() should be nil")
	}
	if f.Pump(3) != f.Pumps[3] {
		t.Fatal("Pump accessor mismatch")
	}
}

func TestFleetInitialAgesVary(t *testing.T) {
	f := NewFleet(FleetConfig{Seed: 78})
	ages := map[int]float64{}
	for i, p := range f.Pumps {
		ages[i] = p.DegradationAt(0)
	}
	distinct := map[float64]bool{}
	for _, a := range ages {
		distinct[a] = true
	}
	if len(distinct) < 6 {
		t.Fatalf("initial statuses should vary, got %d distinct", len(distinct))
	}
}

func TestFleetZoneCounts(t *testing.T) {
	f := NewFleet(FleetConfig{Seed: 79})
	counts := make(map[MergedZone]int)
	for _, p := range f.Pumps {
		counts[p.ZoneAt(0).Merged()]++
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 12 {
		t.Fatalf("zone counts sum %d", total)
	}
}

func TestDegradationNonNegativeProperty(t *testing.T) {
	p := NewPump(PumpConfig{ID: 10, Seed: 10})
	f := func(day float64) bool {
		if math.IsNaN(day) || math.IsInf(day, 0) {
			return true
		}
		day = math.Abs(math.Mod(day, 10000))
		return p.DegradationAt(day) >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps*(1+math.Abs(a)+math.Abs(b))
}

func TestZoneForVelocity(t *testing.T) {
	cases := []struct {
		v    float64
		want Zone
	}{
		{0.3, ZoneA}, {1.11, ZoneA}, {1.12, ZoneB}, {2.5, ZoneB},
		{2.8, ZoneC}, {7.0, ZoneC}, {7.1, ZoneD}, {20, ZoneD},
	}
	for _, c := range cases {
		if got := ZoneForVelocity(c.v); got != c.want {
			t.Errorf("ZoneForVelocity(%g) = %v, want %v", c.v, got, c.want)
		}
	}
}
