package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"vibepm/internal/physics"
	"vibepm/internal/ransac"
)

// scoredSamples draws n samples per zone from Gaussians at the given
// means.
func scoredSamples(rng *rand.Rand, n int, meanA, meanBC, meanD, sigma float64) []Sample {
	var out []Sample
	for i := 0; i < n; i++ {
		out = append(out,
			Sample{Score: meanA + sigma*rng.NormFloat64(), Zone: physics.MergedA},
			Sample{Score: meanBC + sigma*rng.NormFloat64(), Zone: physics.MergedBC},
			Sample{Score: meanD + sigma*rng.NormFloat64(), Zone: physics.MergedD},
		)
	}
	return out
}

func TestTrainGaussianErrors(t *testing.T) {
	if _, err := TrainGaussian(nil); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("err = %v", err)
	}
	if _, err := TrainGaussian([]Sample{{Score: 1, Zone: physics.MergedUnknown}}); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("err = %v", err)
	}
}

func TestGaussianClassifierSeparatedClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	train := scoredSamples(rng, 30, 0.05, 0.15, 0.30, 0.01)
	c, err := TrainGaussian(train)
	if err != nil {
		t.Fatal(err)
	}
	test := scoredSamples(rng, 200, 0.05, 0.15, 0.30, 0.01)
	conf := Evaluate(c, test)
	if acc := conf.Accuracy(); acc < 0.98 {
		t.Fatalf("accuracy %.3f on well-separated classes", acc)
	}
}

func TestGaussianClassifierSparseTraining(t *testing.T) {
	// One or two samples per class must still train (regularized std).
	rng := rand.New(rand.NewSource(2))
	train := scoredSamples(rng, 1, 0.05, 0.15, 0.30, 0.005)
	c, err := TrainGaussian(train)
	if err != nil {
		t.Fatal(err)
	}
	test := scoredSamples(rng, 100, 0.05, 0.15, 0.30, 0.005)
	conf := Evaluate(c, test)
	if acc := conf.Accuracy(); acc < 0.9 {
		t.Fatalf("sparse-training accuracy %.3f", acc)
	}
}

func TestGaussianProbabilitiesNormalized(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c, err := TrainGaussian(scoredSamples(rng, 20, 0, 1, 2, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	probs := c.Probabilities(1)
	var total float64
	for _, p := range probs {
		if p < 0 || p > 1 {
			t.Fatalf("probability %g out of range", p)
		}
		total += p
	}
	if math.Abs(total-1) > 1e-9 {
		t.Fatalf("probabilities sum to %g", total)
	}
	// At score 1 the BC class must dominate.
	if probs[physics.MergedBC] < probs[physics.MergedA] || probs[physics.MergedBC] < probs[physics.MergedD] {
		t.Fatalf("posterior at BC mean: %v", probs)
	}
}

// countPairs sums Count over every (truth, predicted) zone pair: the
// number of pairs the matrix recorded.
func countPairs(c *Confusion) int {
	n := 0
	for _, truth := range physics.MergedZones {
		for _, predicted := range physics.MergedZones {
			n += c.Count(truth, predicted)
		}
	}
	return n
}

func TestConfusionMetrics(t *testing.T) {
	c := NewConfusion()
	// 10 A all correct; 10 BC with 2 as D; 10 D with 5 as BC.
	for i := 0; i < 10; i++ {
		c.Add(physics.MergedA, physics.MergedA)
	}
	for i := 0; i < 8; i++ {
		c.Add(physics.MergedBC, physics.MergedBC)
	}
	for i := 0; i < 2; i++ {
		c.Add(physics.MergedBC, physics.MergedD)
	}
	for i := 0; i < 5; i++ {
		c.Add(physics.MergedD, physics.MergedD)
	}
	for i := 0; i < 5; i++ {
		c.Add(physics.MergedD, physics.MergedBC)
	}
	if n := countPairs(c); n != 30 {
		t.Fatalf("total %d", n)
	}
	if got := c.Recall(physics.MergedD); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("recall D = %g", got)
	}
	if got := c.Precision(physics.MergedD); math.Abs(got-5.0/7) > 1e-12 {
		t.Fatalf("precision D = %g", got)
	}
	if got := c.Accuracy(); math.Abs(got-23.0/30) > 1e-12 {
		t.Fatalf("accuracy = %g", got)
	}
	if got := c.Precision(physics.MergedA); got != 1 {
		t.Fatalf("precision A = %g", got)
	}
	if c.MacroPrecision() <= 0 || c.MacroRecall() <= 0 {
		t.Fatal("macro metrics must be positive")
	}
	if s := c.String(); len(s) == 0 {
		t.Fatal("empty render")
	}
	// Empty matrix conventions.
	e := NewConfusion()
	if e.Accuracy() != 0 || e.Precision(physics.MergedA) != 1 || e.Recall(physics.MergedA) != 1 {
		t.Fatal("empty-matrix conventions broken")
	}
}

func TestFitDensitiesAndBoundary(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var samples []Sample
	for i := 0; i < 700; i++ {
		samples = append(samples, Sample{Score: 0.05 + 0.02*rng.NormFloat64(), Zone: physics.MergedA})
	}
	for i := 0; i < 1400; i++ {
		samples = append(samples, Sample{Score: 0.13 + 0.03*rng.NormFloat64(), Zone: physics.MergedBC})
	}
	for i := 0; i < 700; i++ {
		samples = append(samples, Sample{Score: 0.27 + 0.035*rng.NormFloat64(), Zone: physics.MergedD})
	}
	dens, err := FitDensities(samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(dens.ByZone) != 3 {
		t.Fatalf("densities for %d zones", len(dens.ByZone))
	}
	boundary, err := dens.BoundaryBCD()
	if err != nil {
		t.Fatal(err)
	}
	// The minimum-error boundary between BC(0.13) and D(0.27) lands
	// near 0.2 — the paper's 0.21.
	if boundary < 0.17 || boundary > 0.24 {
		t.Fatalf("BC/D boundary %.3f", boundary)
	}
}

func TestFitDensitiesErrors(t *testing.T) {
	if _, err := FitDensities(nil); !errors.Is(err, ErrNoSamples) {
		t.Fatalf("err = %v", err)
	}
	d, err := FitDensities([]Sample{{Score: 1, Zone: physics.MergedA}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.BoundaryBCD(); err == nil {
		t.Fatal("boundary without BC and D must error")
	}
}

func makeTrend(rng *rand.Rand, slope, intercept, noise float64, ages []float64) []TrendPoint {
	out := make([]TrendPoint, len(ages))
	for i, a := range ages {
		out[i] = TrendPoint{AgeDays: a, Da: slope*a + intercept + noise*rng.NormFloat64()}
	}
	return out
}

func agesUniform(rng *rand.Rand, n int, maxAge float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.Float64() * maxAge
	}
	return out
}

func TestLearnLifetimeModelsTwoPopulations(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var points []TrendPoint
	// Model I: slope 0.0004 (long-term); Model II: slope 0.0012.
	points = append(points, makeTrend(rng, 0.0004, 0.01, 0.005, agesUniform(rng, 600, 500))...)
	points = append(points, makeTrend(rng, 0.0012, 0.01, 0.005, agesUniform(rng, 600, 170))...)
	models, err := LearnLifetimeModels(points, 0.21)
	if err != nil {
		t.Fatal(err)
	}
	if len(models.Models) != 2 {
		t.Fatalf("found %d models, want 2", len(models.Models))
	}
	// Slope-sorted: Model I first.
	if models.Models[0].Slope >= models.Models[1].Slope {
		t.Fatal("models not slope-sorted")
	}
	ratio := models.Models[1].Slope / models.Models[0].Slope
	if ratio < 2 || ratio > 4.5 {
		t.Fatalf("slope ratio %.2f, want ≈3", ratio)
	}
}

func twoModelSet() *LifetimeModels {
	return &LifetimeModels{
		ThresholdDa: 0.21,
		Models: []ransac.Line{
			{Slope: 0.0004, Intercept: 0.01},
			{Slope: 0.0012, Intercept: 0.01},
		},
	}
}

func TestAssignPicksBestModel(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	models := twoModelSet()
	slow := makeTrend(rng, 0.0004, 0.01, 0.003, agesUniform(rng, 40, 400))
	fast := makeTrend(rng, 0.0012, 0.01, 0.003, agesUniform(rng, 40, 150))
	idx, rms, err := models.Assign(slow)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("slow pump assigned model %d", idx)
	}
	if rms > 0.01 {
		t.Fatalf("assignment RMS %.4f", rms)
	}
	idx, _, err = models.Assign(fast)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 1 {
		t.Fatalf("fast pump assigned model %d", idx)
	}
	if _, _, err := models.Assign(nil); !errors.Is(err, ErrNoPoints) {
		t.Fatalf("err = %v", err)
	}
}

func TestPredictRUL(t *testing.T) {
	models := twoModelSet()
	// Model I crosses 0.21 at age (0.21-0.01)/0.0004 = 500 days.
	rul, err := models.PredictRUL(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(rul-400) > 1e-9 {
		t.Fatalf("RUL = %g, want 400", rul)
	}
	// Past the boundary: negative RUL.
	rul, err = models.PredictRUL(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	// Model II crosses at (0.21-0.01)/0.0012 ≈ 166.7 → RUL ≈ −33.3.
	if rul >= 0 || math.Abs(rul+33.33) > 0.1 {
		t.Fatalf("RUL = %g, want ≈ −33.3", rul)
	}
	if _, err := models.PredictRUL(5, 0); err == nil {
		t.Fatal("out-of-range model index must error")
	}
	bad := &LifetimeModels{ThresholdDa: 0.21, Models: []ransac.Line{{Slope: -1}}}
	if _, err := bad.PredictRUL(0, 0); err == nil {
		t.Fatal("non-positive slope must error")
	}
}

func TestPredictRULForTrend(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	models := twoModelSet()
	trend := makeTrend(rng, 0.0004, 0.01, 0.002, []float64{100, 150, 200, 250, 300})
	rul, idx, err := models.PredictRULForTrend(trend)
	if err != nil {
		t.Fatal(err)
	}
	if idx != 0 {
		t.Fatalf("assigned model %d", idx)
	}
	// Newest age 300, crossing at 500 → RUL ≈ 200.
	if math.Abs(rul-200) > 20 {
		t.Fatalf("RUL %.1f, want ≈200", rul)
	}
}

func TestTrendRUL(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := TrendRUL{ThresholdDa: 0.21}
	// A pump ageing at 0.001/day, currently at Da ≈ 0.11 → ≈100 days.
	ages := make([]float64, 80)
	for i := range ages {
		ages[i] = float64(i)
	}
	trend := makeTrend(rng, 0.001, 0.03, 0.002, ages)
	rul, err := tr.Predict(trend)
	if err != nil {
		t.Fatal(err)
	}
	if rul < 60 || rul > 160 {
		t.Fatalf("trend RUL %.1f, want ≈100", rul)
	}
	// Errors: too few points, flat trend.
	if _, err := tr.Predict(trend[:2]); err == nil {
		t.Fatal("want error for short trend")
	}
	flat := makeTrend(rng, 0, 0.05, 0.0001, ages)
	if _, err := tr.Predict(flat); err == nil {
		t.Fatal("want error for flat trend")
	}
	same := []TrendPoint{{AgeDays: 5, Da: 1}, {AgeDays: 5, Da: 2}, {AgeDays: 5, Da: 3}}
	if _, err := tr.Predict(same); err == nil {
		t.Fatal("want error for zero age spread")
	}
}

func TestLearnLifetimeModelsErrors(t *testing.T) {
	if _, err := LearnLifetimeModels(nil, 0.21); !errors.Is(err, ErrNoPoints) {
		t.Fatalf("err = %v", err)
	}
}

func TestCostModel(t *testing.T) {
	c := DefaultCostModel()
	if got := c.WastedValueUSD(390); got != 39_000 {
		t.Fatalf("wasted value %g", got)
	}
	if got := c.WastedValueUSD(-80); got != 0 {
		t.Fatalf("breakdown wasted value %g", got)
	}
	if PlannedMaintenance.String() != "PM" || BreakdownMaintenance.String() != "BM" || NoMaintenance.String() != "-" {
		t.Fatal("maintenance strings")
	}
}

func TestSummarizeSavings(t *testing.T) {
	c := DefaultCostModel()
	outcomes := []PumpOutcome{
		{PumpID: 4, Event: PlannedMaintenance, WastedRULDays: 390},
		{PumpID: 5, Event: PlannedMaintenance, WastedRULDays: 310},
		{PumpID: 8, Event: PlannedMaintenance, WastedRULDays: 280},
		{PumpID: 7, Event: BreakdownMaintenance, WastedRULDays: -80},
		{PumpID: 0, Event: NoMaintenance, WastedRULDays: 0},
	}
	rep, err := c.Summarize(outcomes, 182, 14)
	if err != nil {
		t.Fatal(err)
	}
	if rep.WastedDays != 980 {
		t.Fatalf("wasted days %g", rep.WastedDays)
	}
	if rep.WastedUSD != 98_000 {
		t.Fatalf("wasted USD %g (the paper's US$98,000)", rep.WastedUSD)
	}
	if rep.Breakdowns != 1 {
		t.Fatalf("breakdowns %d", rep.Breakdowns)
	}
	if rep.LifetimeGain <= 1 {
		t.Fatalf("lifetime gain %.2f must exceed 1", rep.LifetimeGain)
	}
	if rep.SavingsFraction <= 0 || rep.SavingsFraction >= 1 {
		t.Fatalf("savings fraction %.3f", rep.SavingsFraction)
	}
	if _, err := c.Summarize(nil, 0, 0); !errors.Is(err, ErrNoOutcomes) {
		t.Fatalf("err = %v", err)
	}
}

func TestFormatRUL(t *testing.T) {
	cases := map[float64]string{
		-87: "< 1 wk.", 3: "< 1 wk.", 51: "< 3 mth.", 118: "< 6 mth.",
		200: "< 1 yr.", 458: "> 1 yr.",
	}
	for days, want := range cases {
		if got := FormatRUL(days); got != want {
			t.Errorf("FormatRUL(%g) = %q, want %q", days, got, want)
		}
	}
}

func TestPumpOutcomeString(t *testing.T) {
	o := PumpOutcome{PumpID: 7, ModelIdx: 1, Event: BreakdownMaintenance, WastedRULDays: -80, PredictedRULDays: 118, DiagnosedRULDays: 150}
	s := o.String()
	if s == "" {
		t.Fatal("empty render")
	}
}
