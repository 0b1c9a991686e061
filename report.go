package vibepm

import (
	"fmt"
	"sort"
	"strings"

	"vibepm/internal/core"
)

// PumpReport is the live health summary of one pump: the latest
// measurement's score, zone, and (when lifetime models are available)
// the RUL projection.
type PumpReport struct {
	PumpID        int              `json:"pump_id"`
	ServiceDays   float64          `json:"service_days"`
	Da            float64          `json:"da"`
	Zone          Zone             `json:"zone"`
	Probabilities map[Zone]float64 `json:"probabilities"`
	// RULDays and ModelIdx are valid when HasRUL is true.
	HasRUL   bool    `json:"has_rul"`
	RULDays  float64 `json:"rul_days,omitempty"`
	ModelIdx int     `json:"model_idx,omitempty"`
	// Faults carries the fault-taxonomy classification of the latest
	// measurement when EnableFaults is on (nil otherwise, so reports
	// from engines without fault detection serialize unchanged).
	Faults *FaultReport `json:"faults,omitempty"`
}

// Report summarizes one pump from its most recent stored measurement.
// ageOf may be nil, in which case the RUL projection is skipped.
func (e *Engine) Report(pumpID int, ageOf AgeFunc) (*PumpReport, error) {
	if !e.Fitted() {
		return nil, ErrNotFitted
	}
	rec := e.measurements.Latest(pumpID)
	if rec == nil {
		return nil, fmt.Errorf("%w: pump %d has no measurements", ErrNoData, pumpID)
	}
	// Scored once; the zone and its posteriors are read off that score
	// exactly as Classify does.
	da, err := e.Da(rec)
	if err != nil {
		return nil, err
	}
	rep := &PumpReport{
		PumpID:        pumpID,
		ServiceDays:   rec.ServiceDays,
		Da:            da,
		Zone:          e.classifier.Predict(da),
		Probabilities: e.classifier.Probabilities(da),
	}
	if e.models != nil && ageOf != nil {
		if rul, modelIdx, err := e.PredictRUL(pumpID, ageOf); err == nil {
			rep.HasRUL = true
			rep.RULDays = rul
			rep.ModelIdx = modelIdx
		}
	}
	if e.detector != nil {
		fr := e.faultReport(rec)
		rep.Faults = &fr
	}
	return rep, nil
}

// FleetReport summarizes every pump in the store, ordered by urgency:
// pumps with the least (or most negative) RUL first, then by zone
// severity and D_a. Per-pump analysis runs in parallel via AnalyzeAll.
func (e *Engine) FleetReport(ageOf AgeFunc) ([]PumpReport, error) {
	fleet, err := e.AnalyzeAll(ageOf)
	if err != nil {
		return nil, err
	}
	out := fleet.Pumps
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.HasRUL != b.HasRUL {
			return a.HasRUL // projected pumps sort by urgency first
		}
		if a.HasRUL && b.HasRUL && a.RULDays != b.RULDays {
			return a.RULDays < b.RULDays
		}
		if a.Zone != b.Zone {
			return a.Zone > b.Zone // D before BC before A
		}
		return a.Da > b.Da
	})
	return out, nil
}

// FormatFleetReport renders a fleet report as an aligned table with a
// suggested action per pump.
func FormatFleetReport(reports []PumpReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-6s %-9s %-9s %-10s %-10s %s\n", "pump", "Da", "zone", "RUL (d)", "diagnosis", "action")
	for _, r := range reports {
		rul := "-"
		diag := "-"
		action := "monitor"
		if r.HasRUL {
			rul = fmt.Sprintf("%.0f", r.RULDays)
			diag = core.FormatRUL(r.RULDays)
			switch {
			case r.RULDays < 0:
				action = "replace now"
			case r.RULDays < 30:
				action = "schedule replacement"
			case r.RULDays < 90:
				action = "order spare"
			}
		} else if r.Zone == ZoneD {
			action = "inspect immediately"
		}
		fmt.Fprintf(&b, "%-6d %-9.3f %-9s %-10s %-10s %s\n", r.PumpID, r.Da, r.Zone, rul, diag, action)
	}
	return b.String()
}
