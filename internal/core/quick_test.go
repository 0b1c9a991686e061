package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"vibepm/internal/physics"
)

// TestConfusionInvariantsProperty checks, for arbitrary prediction
// streams, that the confusion matrix's totals, accuracy bounds, and
// per-class precision/recall bounds always hold.
func TestConfusionInvariantsProperty(t *testing.T) {
	zones := physics.MergedZones
	f := func(pairs []uint8) bool {
		c := NewConfusion()
		for _, p := range pairs {
			truth := zones[int(p)%len(zones)]
			pred := zones[int(p/16)%len(zones)]
			c.Add(truth, pred)
		}
		if countPairs(c) != len(pairs) {
			return false
		}
		acc := c.Accuracy()
		if len(pairs) == 0 {
			if acc != 0 {
				return false
			}
		} else if acc < 0 || acc > 1 {
			return false
		}
		var diag int
		for _, z := range zones {
			p, r := c.Precision(z), c.Recall(z)
			if p < 0 || p > 1 || r < 0 || r > 1 {
				return false
			}
			diag += c.Count(z, z)
		}
		// Accuracy is exactly the diagonal mass.
		if len(pairs) > 0 && math.Abs(acc-float64(diag)/float64(len(pairs))) > 1e-12 {
			return false
		}
		return c.MacroPrecision() >= 0 && c.MacroPrecision() <= 1 &&
			c.MacroRecall() >= 0 && c.MacroRecall() <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestGaussianClassifierTotalProbabilityProperty: posteriors always
// normalize and Predict always returns the argmax zone.
func TestGaussianClassifierTotalProbabilityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	train := scoredSamples(rng, 10, 0, 1, 2, 0.3)
	c, err := TrainGaussian(train)
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		score := math.Mod(raw, 10)
		probs := c.Probabilities(score)
		var total float64
		best := physics.MergedUnknown
		bestP := -1.0
		for z, p := range probs {
			if p < 0 || p > 1 {
				return false
			}
			total += p
			if p > bestP {
				best, bestP = z, p
			}
		}
		if math.Abs(total-1) > 1e-9 {
			return false
		}
		return c.Predict(score) == best
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestClassifierStateRoundtripProperty: State → NewGaussianFromState
// preserves every prediction.
func TestClassifierStateRoundtripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(100))
	orig, err := TrainGaussian(scoredSamples(rng, 8, 0.1, 0.5, 1.2, 0.1))
	if err != nil {
		t.Fatal(err)
	}
	restored, err := NewGaussianFromState(orig.State())
	if err != nil {
		t.Fatal(err)
	}
	f := func(raw float64) bool {
		if math.IsNaN(raw) || math.IsInf(raw, 0) {
			return true
		}
		score := math.Mod(raw, 5)
		return orig.Predict(score) == restored.Predict(score)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestRULMonotonicityProperty: for a fixed model, more age never means
// more remaining life.
func TestRULMonotonicityProperty(t *testing.T) {
	models := twoModelSet()
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		a, b = math.Mod(math.Abs(a), 2000), math.Mod(math.Abs(b), 2000)
		lo, hi := math.Min(a, b), math.Max(a, b)
		rulLo, err1 := models.PredictRUL(0, lo)
		rulHi, err2 := models.PredictRUL(0, hi)
		if err1 != nil || err2 != nil {
			return false
		}
		return rulLo >= rulHi-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
