package core

import (
	"errors"
	"fmt"
)

// CostModel carries the paper's Table IV economics: a pump costs
// US$55,000 and depreciates US$100 per day of useful life, so every day
// of RUL thrown away by an early replacement is US$100 wasted. A
// breakdown additionally costs BreakdownPenaltyUSD in defective wafers
// and pipeline stoppage — the risk the fab's conservative policy exists
// to avoid (paper §I).
type CostModel struct {
	// DailyValueUSD is the value of one day of remaining useful life.
	DailyValueUSD float64
	// PumpPriceUSD is the purchase price of a pump.
	PumpPriceUSD float64
	// BreakdownPenaltyUSD is the collateral cost of an unplanned
	// failure.
	BreakdownPenaltyUSD float64
}

// DefaultCostModel returns the paper's numbers (breakdown penalty set
// to one pump price, a conservative fab estimate).
func DefaultCostModel() CostModel {
	return CostModel{DailyValueUSD: 100, PumpPriceUSD: 55_000, BreakdownPenaltyUSD: 55_000}
}

// WastedValueUSD converts wasted RUL days into dollars. Negative wasted
// days (a breakdown: the pump ran past failure) return 0 — the cost of
// a breakdown is accounted separately.
func (c CostModel) WastedValueUSD(wastedDays float64) float64 {
	if wastedDays <= 0 {
		return 0
	}
	return wastedDays * c.DailyValueUSD
}

// MaintenanceKind is the replacement event type of the paper's §V-A.
type MaintenanceKind int

const (
	// NoMaintenance means the pump ran through the whole window.
	NoMaintenance MaintenanceKind = iota
	// PlannedMaintenance (PM) is schedule-driven replacement.
	PlannedMaintenance
	// BreakdownMaintenance (BM) follows an actual failure.
	BreakdownMaintenance
)

// String renders the paper's abbreviations.
func (k MaintenanceKind) String() string {
	switch k {
	case PlannedMaintenance:
		return "PM"
	case BreakdownMaintenance:
		return "BM"
	default:
		return "-"
	}
}

// PumpOutcome is one row of the paper's Table IV.
type PumpOutcome struct {
	PumpID int
	// ModelIdx is the assigned lifetime model (0 = Model I, 1 = Model
	// II after slope sorting).
	ModelIdx int
	// Event is the maintenance event observed during the experiment.
	Event MaintenanceKind
	// WastedRULDays is the ground-truth RUL thrown away at replacement
	// (negative when the pump broke down first).
	WastedRULDays float64
	// PredictedRULDays is the analysis engine's RUL at the end of the
	// window.
	PredictedRULDays float64
	// DiagnosedRULDays is the domain expert's estimate at the end of
	// the window (ground truth in the simulation).
	DiagnosedRULDays float64
}

// SavingsReport aggregates the fleet economics.
type SavingsReport struct {
	// WastedDays and WastedUSD total the early-replacement waste under
	// the conventional policy.
	WastedDays float64
	WastedUSD  float64
	// Breakdowns counts BM events.
	Breakdowns int
	// SavingsFraction estimates the fraction of the conventional
	// operating cost the RUL-driven policy recovers.
	SavingsFraction float64
	// LifetimeGain is the mean ratio of achieved to conventional
	// service life under the RUL policy.
	LifetimeGain float64
}

// ErrNoOutcomes is returned when summarizing an empty fleet.
var ErrNoOutcomes = errors.New("core: no pump outcomes")

// Summarize computes the savings over the outcomes for pumps whose
// conventional replacement period is fixedPeriodDays (the paper's
// 6-month conservative policy). The RUL-driven policy replaces
// marginDays before the Zone D crossing, so it stretches long-lived
// pumps past the fixed period and catches short-lived pumps before they
// break down.
//
// Each pump's true useful life is reconstructed from its outcome:
// a PM event wasted w > 0 days (life = period + w), a BM event ran
// w < 0 days past failure (life = period + w), and an event-free pump
// lives out its diagnosed RUL (life = period + diag, which a negative
// diag shortens). Every life is floored at a 30-day cycle.
// Costs are amortized per day: the conventional policy pays one pump
// per period plus the breakdown penalty whenever the true life falls
// short of the period; the RUL policy pays one pump per (life − margin)
// with no breakdowns.
func (c CostModel) Summarize(outcomes []PumpOutcome, fixedPeriodDays, marginDays float64) (*SavingsReport, error) {
	if len(outcomes) == 0 {
		return nil, ErrNoOutcomes
	}
	if fixedPeriodDays <= 0 {
		fixedPeriodDays = 182 // the paper's 6-month conservative policy
	}
	rep := &SavingsReport{}
	const minCycle = 30.0
	var convPerDaySum, rulPerDaySum float64
	var convLifeSum, rulLifeSum float64
	for _, o := range outcomes {
		var trueLife float64
		switch o.Event {
		case PlannedMaintenance:
			rep.WastedDays += o.WastedRULDays
			rep.WastedUSD += c.WastedValueUSD(o.WastedRULDays)
			trueLife = fixedPeriodDays + o.WastedRULDays
		case BreakdownMaintenance:
			rep.Breakdowns++
			trueLife = fixedPeriodDays + o.WastedRULDays // negative waste: ran past failure
		default:
			trueLife = fixedPeriodDays + o.DiagnosedRULDays
		}
		if trueLife < minCycle {
			trueLife = minCycle
		}
		// Conventional cycle: planned replacement at the fixed period,
		// or an unplanned (penalized) failure beforehand.
		convLife := fixedPeriodDays
		convCost := c.PumpPriceUSD
		if trueLife < fixedPeriodDays {
			convLife = trueLife
			convCost += c.BreakdownPenaltyUSD
		}
		convPerDaySum += convCost / convLife
		convLifeSum += convLife
		// RUL-driven cycle: replace marginDays before the crossing.
		rulLife := trueLife - marginDays
		if rulLife < minCycle {
			rulLife = minCycle
		}
		rulPerDaySum += c.PumpPriceUSD / rulLife
		rulLifeSum += rulLife
	}
	rep.LifetimeGain = rulLifeSum / convLifeSum
	rep.SavingsFraction = (convPerDaySum - rulPerDaySum) / convPerDaySum
	return rep, nil
}

// FormatRUL renders an RUL estimate the way the paper's Table IV
// "Diagnosed RUL" row does: coarse human buckets.
func FormatRUL(days float64) string {
	switch {
	case days < 7:
		return "< 1 wk."
	case days < 90:
		return "< 3 mth."
	case days < 180:
		return "< 6 mth."
	case days < 365:
		return "< 1 yr."
	default:
		return "> 1 yr."
	}
}

// String renders one Table IV row compactly.
func (o PumpOutcome) String() string {
	return fmt.Sprintf("pump %d: model %d, event %s, wasted %.0f d, predicted %.0f d, diagnosed %s",
		o.PumpID, o.ModelIdx+1, o.Event, o.WastedRULDays, o.PredictedRULDays, FormatRUL(o.DiagnosedRULDays))
}
