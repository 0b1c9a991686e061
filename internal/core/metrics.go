package core

import (
	"fmt"
	"strings"

	"vibepm/internal/physics"
)

// Confusion is a 3-class confusion matrix over the merged zones, with
// rows = true zone and columns = predicted zone (the layout of the
// paper's Table III).
type Confusion struct {
	counts map[physics.MergedZone]map[physics.MergedZone]int
	total  int
}

// NewConfusion returns an empty matrix.
func NewConfusion() *Confusion {
	return &Confusion{counts: map[physics.MergedZone]map[physics.MergedZone]int{}}
}

// Add records one (true, predicted) pair.
func (c *Confusion) Add(truth, predicted physics.MergedZone) {
	row, ok := c.counts[truth]
	if !ok {
		row = map[physics.MergedZone]int{}
		c.counts[truth] = row
	}
	row[predicted]++
	c.total++
}

// Count returns the cell (truth, predicted).
func (c *Confusion) Count(truth, predicted physics.MergedZone) int {
	return c.counts[truth][predicted]
}

// Precision returns TP / (TP + FP) for a zone (1 when the zone is never
// predicted, following the convention that an unused prediction makes
// no false claims).
func (c *Confusion) Precision(zone physics.MergedZone) float64 {
	tp := c.Count(zone, zone)
	predicted := 0
	for _, truth := range physics.MergedZones {
		predicted += c.Count(truth, zone)
	}
	if predicted == 0 {
		return 1
	}
	return float64(tp) / float64(predicted)
}

// Recall returns TP / (TP + FN) for a zone (1 when the zone never
// occurs).
func (c *Confusion) Recall(zone physics.MergedZone) float64 {
	tp := c.Count(zone, zone)
	actual := 0
	for _, predicted := range physics.MergedZones {
		actual += c.Count(zone, predicted)
	}
	if actual == 0 {
		return 1
	}
	return float64(tp) / float64(actual)
}

// Accuracy returns the overall fraction of correct predictions.
func (c *Confusion) Accuracy() float64 {
	if c.total == 0 {
		return 0
	}
	correct := 0
	for _, zone := range physics.MergedZones {
		correct += c.Count(zone, zone)
	}
	return float64(correct) / float64(c.total)
}

// MacroPrecision averages precision over the three zones — the
// "Average" panel of the paper's Fig. 12.
func (c *Confusion) MacroPrecision() float64 {
	var s float64
	for _, z := range physics.MergedZones {
		s += c.Precision(z)
	}
	return s / float64(len(physics.MergedZones))
}

// MacroRecall averages recall over the three zones.
func (c *Confusion) MacroRecall() float64 {
	var s float64
	for _, z := range physics.MergedZones {
		s += c.Recall(z)
	}
	return s / float64(len(physics.MergedZones))
}

// String renders the matrix in the paper's Table III layout.
func (c *Confusion) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s", "true\\pred")
	for _, z := range physics.MergedZones {
		fmt.Fprintf(&b, "%10s", z)
	}
	b.WriteByte('\n')
	for _, truth := range physics.MergedZones {
		fmt.Fprintf(&b, "%-10s", truth)
		for _, pred := range physics.MergedZones {
			fmt.Fprintf(&b, "%10d", c.Count(truth, pred))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Evaluate runs the classifier over the test samples and tallies the
// confusion matrix.
func Evaluate(c Classifier, test []Sample) *Confusion {
	m := NewConfusion()
	for _, s := range test {
		if s.Zone == physics.MergedUnknown {
			continue
		}
		m.Add(s.Zone, c.Predict(s.Score))
	}
	return m
}
