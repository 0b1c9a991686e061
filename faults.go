package vibepm

import (
	"fmt"

	"vibepm/internal/feature"
	"vibepm/internal/physics"
)

// Fault taxonomy re-exports: the detector layer lives in
// internal/feature (scores) over internal/physics (taxonomy and
// bearing geometry); callers wire it through the engine without
// importing internal paths.
type (
	// FaultClass names the rotating-machine fault taxonomy.
	FaultClass = physics.FaultClass
	// BearingGeometry fixes a bearing's defect passing frequencies.
	BearingGeometry = physics.BearingGeometry
	// MachineSpec is the per-pump knowledge the fault detectors use.
	MachineSpec = feature.MachineSpec
	// FaultReport is the classification of one measurement.
	FaultReport = feature.FaultReport
	// FaultEvidence is one named statistic behind a fault decision.
	FaultEvidence = feature.Evidence
)

// The taxonomy constants, re-exported.
const (
	FaultNone         = physics.FaultNone
	FaultBearing      = physics.FaultBearing
	FaultImbalance    = physics.FaultImbalance
	FaultMisalignment = physics.FaultMisalignment
	FaultLooseness    = physics.FaultLooseness
)

// FaultOptions has no fields: the detector thresholds are the
// calibrated constants of internal/feature. The type and EnableFaults'
// second parameter stay only because the frozen benchmark/ passes
// FaultOptions{} to it.
type FaultOptions struct{}

// EnableFaults switches fault classification on: every report gains a
// FaultReport and FaultStatus starts answering. A measurement is
// classified once — at ingest, by WarmLive if it is its pump's latest,
// or on first query — and served from the live state afterwards. def
// is the fleet-default machine spec (zero value: estimate rotor speed
// from each spectrum, default bearing geometry). The FaultOptions
// argument is ignored.
func (e *Engine) EnableFaults(def MachineSpec, _ FaultOptions) {
	e.detector = feature.NewFaultDetector(def)
	e.live.SetFaultDetector(e.detector)
}

// FaultsEnabled reports whether fault classification is on.
func (e *Engine) FaultsEnabled() bool { return e.detector != nil }

// SetMachineSpec overrides the machine spec of one pump (its true rotor
// speed, its bearing geometry). Detectors are immutable, so the update
// installs a copy-on-write successor; cached reports against the old
// detector identity are recomputed lazily.
func (e *Engine) SetMachineSpec(pumpID int, spec MachineSpec) error {
	if e.detector == nil {
		return ErrFaultsDisabled
	}
	e.detector = e.detector.WithSpec(pumpID, spec)
	e.live.SetFaultDetector(e.detector)
	return nil
}

// ErrFaultsDisabled is returned by fault queries before EnableFaults.
var ErrFaultsDisabled = fmt.Errorf("vibepm: fault classification not enabled — call EnableFaults")

// PumpFaultStatus is the fault classification of a pump's most recent
// measurement.
type PumpFaultStatus struct {
	PumpID      int     `json:"pump_id"`
	ServiceDays float64 `json:"service_days"`
	FaultReport
}

// FaultStatus classifies the most recent stored measurement of one
// pump. The report is a memo read after the first query, identical to
// running the detector on the record directly.
func (e *Engine) FaultStatus(pumpID int) (*PumpFaultStatus, error) {
	det := e.detector
	if det == nil {
		return nil, ErrFaultsDisabled
	}
	rec := e.measurements.Latest(pumpID)
	if rec == nil {
		return nil, fmt.Errorf("%w: pump %d has no measurements", ErrNoData, pumpID)
	}
	return &PumpFaultStatus{
		PumpID:      pumpID,
		ServiceDays: rec.ServiceDays,
		FaultReport: e.faultReport(rec),
	}, nil
}

// faultReport classifies one record through the live memo. Callers
// must have checked e.detector.
func (e *Engine) faultReport(rec *Record) FaultReport {
	return e.live.FaultReport(rec, e.detector)
}
