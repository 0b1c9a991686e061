// Package vibepm is a vibration-analysis engine for IoT-enabled
// predictive maintenance, reproducing the system of Jung, Zhang &
// Winslett, "Vibration Analysis for IoT Enabled Predictive Maintenance"
// (ICDE 2017).
//
// The library covers the paper's full pipeline: MEMS vibration sensing
// over energy-constrained motes, reliable bulk transport (Flush),
// gateway-side ingestion into an embedded measurement store, outlier
// cleaning by mean shift, DCT-based PSD features, the harmonic-peak
// feature with the peak-harmonic distance (Algorithm 1), KDE-derived
// health-zone classification, recursive-RANSAC lifetime-model
// discovery, and Remaining Useful Lifetime (RUL) projection with the
// replacement cost model of the paper's Table IV.
//
// The Engine type is the main entry point:
//
//	eng := vibepm.New(vibepm.Options{})
//	stored, err := eng.Ingest(record)       // raw measurements: validated, one per (pump, service time)
//	eng.AddLabel(label)                     // expert zone labels
//	if err := eng.Fit(); err != nil { ... } // train the full pipeline
//	zone, probs, _ := eng.Classify(record)  // health classification
//	rul, model, _ := eng.PredictRUL(pumpID, ageOf) // days to Zone D
//
// All types exposed here are aliases of the implementation packages, so
// downstream users never import vibepm/internal/... directly.
package vibepm

import (
	"vibepm/internal/core"
	"vibepm/internal/feature"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// Zone is an equipment health label: A (healthy), BC (watch), D
// (critical). It is the merged 3-way label set the paper evaluates on.
type Zone = physics.MergedZone

// The three health zones plus the unknown sentinel.
const (
	ZoneUnknown = physics.MergedUnknown
	ZoneA       = physics.MergedA
	ZoneBC      = physics.MergedBC
	ZoneD       = physics.MergedD
)

// Record is one stored vibration measurement.
type Record = store.Record

// Label is one expert annotation of a pump's health at a measurement
// time.
type Label = store.Label

// AnalysisPeriod scopes queries and analysis runs in service days.
type AnalysisPeriod = store.AnalysisPeriod

// Measurements is the embedded time-series store for records.
type Measurements = store.Measurements

// ColdStore aliases the tiered storage cold-partition store.
type ColdStore = store.ColdStore

// Labels is the store for expert annotations.
type Labels = store.Labels

// Harmonic is the harmonic-peak feature of one measurement.
type Harmonic = feature.Harmonic

// Metric identifies a feature metric (peak-harmonic, Euclidean,
// Mahalanobis, temperature).
type Metric = feature.Metric

// The four feature metrics of the paper's comparison.
const (
	MetricPeakHarmonic = feature.MetricPeakHarmonic
	MetricEuclidean    = feature.MetricEuclidean
	MetricMahalanobis  = feature.MetricMahalanobis
	MetricTemperature  = feature.MetricTemperature
	// MetricRMS is the extension metric (the paper defines r_mn but
	// does not evaluate it).
	MetricRMS = feature.MetricRMS
)

// HarmonicOptions tunes harmonic-peak extraction (n_p, n_h).
type HarmonicOptions = feature.Options

// TemperatureSource provides the factory control system's temperature
// channel, addressed by equipment id.
type TemperatureSource = feature.TemperatureSource

// Baseline is the trained Zone A reference features.
type Baseline = feature.Baseline

// TrendPoint is one (equipment age, D_a) observation.
type TrendPoint = core.TrendPoint

// LifetimeModels is the set of linear ageing models found by recursive
// RANSAC.
type LifetimeModels = core.LifetimeModels

// ZoneDensities holds the per-zone D_a densities of Fig. 11 that Fit
// estimates.
type ZoneDensities = core.ZoneDensities

// Confusion is a 3-class confusion matrix over zones.
type Confusion = core.Confusion

// CostModel carries the replacement economics (daily depreciation and
// pump price).
type CostModel = core.CostModel

// MaintenanceKind distinguishes planned (PM) from breakdown (BM)
// maintenance.
type MaintenanceKind = core.MaintenanceKind

// Maintenance event kinds.
const (
	NoMaintenance        = core.NoMaintenance
	PlannedMaintenance   = core.PlannedMaintenance
	BreakdownMaintenance = core.BreakdownMaintenance
)

// PumpOutcome is one row of a Table IV-style fleet report.
type PumpOutcome = core.PumpOutcome

// SavingsReport aggregates fleet replacement economics.
type SavingsReport = core.SavingsReport

// DefaultCostModel returns the paper's economics: US$100/day of wasted
// RUL, US$55,000 per pump.
func DefaultCostModel() CostModel { return core.DefaultCostModel() }
