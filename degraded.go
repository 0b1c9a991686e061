package vibepm

import (
	"fmt"
	"sort"
)

// DegradedConfig parameterizes a degraded-mode fleet analysis: the
// engine analyzes whatever partial data a faulty ingestion path managed
// to deliver and reports per-pump data-completeness alongside, so an
// operator can tell a healthy pump from a silent one.
type DegradedConfig struct {
	// ExpectedPerPump maps pump id → how many measurements should have
	// arrived over the observation window (e.g. each mote's produced
	// count as tracked by the gateway). Pumps present here but absent
	// from the store are reported with zero completeness rather than
	// omitted.
	ExpectedPerPump map[int]int
}

// minCompleteness is the fraction of expected measurements a pump needs
// before its latest record is classified; below it the pump is reported
// but skipped. Classification also requires a fitted engine.
const minCompleteness = 0.5

// PumpHealth is one pump's row of a degraded-mode fleet report.
type PumpHealth struct {
	PumpID int `json:"pump_id"`
	// Received and Expected are the delivered vs. expected measurement
	// counts; Completeness is their ratio (1 when Expected is 0).
	Received     int     `json:"received"`
	Expected     int     `json:"expected"`
	Completeness float64 `json:"completeness"`
	// Analyzed reports whether the pump cleared minCompleteness and the
	// engine was fitted; Zone and Da are only meaningful when true.
	Analyzed bool    `json:"analyzed"`
	Zone     string  `json:"zone,omitempty"`
	Da       float64 `json:"da,omitempty"`
}

// DegradedReport is a fleet analysis over partial data.
type DegradedReport struct {
	Pumps []PumpHealth `json:"pumps"`
	// FleetCompleteness is total received / total expected.
	FleetCompleteness float64 `json:"fleet_completeness"`
	// Analyzed and Skipped partition the fleet.
	Analyzed int `json:"analyzed"`
	Skipped  int `json:"skipped"`
}

// AnalyzeDegraded analyzes a partial fleet: every pump named in
// cfg.ExpectedPerPump or present in the store gets a completeness row,
// and pumps with enough data are classified from their latest record
// when the engine is fitted. Unlike Fit/Classify, this path never fails
// because data is missing — missing data is the result.
func (e *Engine) AnalyzeDegraded(cfg DegradedConfig) (*DegradedReport, error) {
	ids := map[int]bool{}
	for _, id := range e.measurements.Pumps() {
		ids[id] = true
	}
	for id := range cfg.ExpectedPerPump {
		ids[id] = true
	}
	if len(ids) == 0 {
		return nil, fmt.Errorf("%w: no pumps to analyze", ErrNoData)
	}
	order := make([]int, 0, len(ids))
	for id := range ids {
		order = append(order, id)
	}
	sort.Ints(order)

	rep := &DegradedReport{}
	var totalReceived, totalExpected int
	for _, id := range order {
		received := len(e.measurements.All(id))
		expected := cfg.ExpectedPerPump[id]
		ph := PumpHealth{PumpID: id, Received: received, Expected: expected}
		switch {
		case expected <= 0:
			ph.Completeness = 1
		default:
			ph.Completeness = float64(received) / float64(expected)
			if ph.Completeness > 1 {
				// Duplicates or an undercounted expectation; clamp so
				// the fleet aggregate stays a fraction.
				ph.Completeness = 1
			}
		}
		totalReceived += received
		totalExpected += expected
		if received > 0 && ph.Completeness >= minCompleteness && e.Fitted() {
			if rec := e.measurements.Latest(id); rec != nil {
				if da, err := e.Da(rec); err == nil {
					ph.Analyzed = true
					ph.Zone = e.classifier.Predict(da).String()
					ph.Da = da
				}
			}
		}
		if ph.Analyzed {
			rep.Analyzed++
		} else {
			rep.Skipped++
		}
		rep.Pumps = append(rep.Pumps, ph)
	}
	switch {
	case totalExpected > 0:
		rep.FleetCompleteness = float64(totalReceived) / float64(totalExpected)
		if rep.FleetCompleteness > 1 {
			rep.FleetCompleteness = 1
		}
	default:
		rep.FleetCompleteness = 1
	}
	return rep, nil
}
