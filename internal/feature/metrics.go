package feature

import (
	"errors"

	"vibepm/internal/dsp"
	"vibepm/internal/par"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// Metric identifies one of the four feature metrics compared in the
// paper's Fig. 12–14 and Table III.
type Metric int

const (
	// MetricPeakHarmonic is the paper's contribution: Algorithm 1's
	// distance from the Zone A baseline harmonic feature.
	MetricPeakHarmonic Metric = iota
	// MetricEuclidean is the Euclidean distance between raw PSD vectors
	// and the Zone A centroid.
	MetricEuclidean
	// MetricMahalanobis is the Mahalanobis distance to the Zone A
	// training distribution (diagonal covariance — the paper notes the
	// full sᵀs is singular in 1024 dimensions).
	MetricMahalanobis
	// MetricTemperature is the FICS temperature reading.
	MetricTemperature
	// MetricRMS is the paper's overall-magnitude feature r_mn (§III-B),
	// the quantity ISO 10816-style severity charts threshold on. The
	// paper defines it but evaluates only the four metrics above; it is
	// included here for the feature ablation.
	MetricRMS
)

// String names the metric as in the paper's figure legends.
func (m Metric) String() string {
	switch m {
	case MetricPeakHarmonic:
		return "Peak harmonic dist."
	case MetricEuclidean:
		return "Euclidian dist."
	case MetricMahalanobis:
		return "Mahal dist."
	case MetricTemperature:
		return "Temp."
	case MetricRMS:
		return "RMS"
	default:
		return "Metric(?)"
	}
}

// Metrics lists the paper's four comparison metrics in figure order.
var Metrics = []Metric{MetricPeakHarmonic, MetricEuclidean, MetricMahalanobis, MetricTemperature}

// Baseline is the trained Zone-A reference each metric scores against:
// the exemplary healthy harmonic feature for Algorithm 1, and the
// healthy PSD centroid/covariance for the vector baselines.
type Baseline struct {
	// Harmonic is the Zone A exemplar harmonic feature.
	Harmonic Harmonic
	// PMax and FMax are Algorithm 1's normalizers. Per the algorithm's
	// preamble (p_max ← max p_ij, f_max ← max f_ij ∀i,j) they are
	// dataset-global: TrainBaseline seeds them from the healthy
	// exemplar and SetNormalizers widens them once the full corpus has
	// been scanned, keeping worn-spectrum amplitude ratios bounded.
	PMax, FMax float64
	// PSDMean is the mean Zone A PSD vector.
	PSDMean []float64
	// PSDVar is the per-bin Zone A PSD variance (regularized).
	PSDVar []float64
	// Opt are the harmonic-extraction options in force.
	Opt Options
}

// ErrNoTraining is returned when a baseline is requested without
// healthy training measurements.
var ErrNoTraining = errors.New("feature: no Zone A training measurements")

// TrainBaseline builds the Zone A baseline from healthy training
// records: the harmonic feature of the average healthy PSD (a stable
// exemplar), the PSD centroid, and the diagonal covariance. It takes
// one spectrum per record; keep, when non-nil, is handed each record's
// index, spectrum and moments once the baseline is built (its PSD
// statistics final), across cores, so a caller can derive what else it
// wants from them without transforming the record again. keep must not
// retain the slices.
func TrainBaseline(healthy []*store.Record, opt Options, keep func(b *Baseline, i int, freq, psd []float64, m transform.Moments)) (*Baseline, error) {
	if len(healthy) == 0 {
		return nil, ErrNoTraining
	}
	opt = opt.fill()
	// The spectra are taken across cores and summed in record order, so
	// the mean is the sequential loop's, bit for bit.
	type spectrum struct {
		freq, psd []float64
		m         transform.Moments
	}
	spectra := par.Map(len(healthy), 0, func(i int) spectrum {
		f, psd, m := transform.PSDInto(nil, nil, healthy[i])
		return spectrum{f, psd, m}
	})
	freq := spectra[0].freq
	mean := make([]float64, len(spectra[0].psd))
	rows := make([][]float64, 0, len(healthy))
	for _, sp := range spectra {
		if len(sp.psd) != len(mean) {
			return nil, errors.New("feature: training measurements disagree in length")
		}
		for i, v := range sp.psd {
			mean[i] += v
		}
		rows = append(rows, sp.psd)
	}
	inv := 1 / float64(len(healthy))
	for i := range mean {
		mean[i] *= inv
	}
	// Regularize the diagonal covariance with a fraction of the mean
	// power so sparse training sets stay invertible.
	var avgPower float64
	for _, v := range mean {
		avgPower += v
	}
	avgPower /= float64(len(mean))
	eps := 1e-12 + 1e-3*avgPower*avgPower
	variance := dsp.DiagonalCovariance(rows, eps)

	// Pin the smoothing width in Hz at the training rate so inference
	// on other sampling rates smooths the same physical bandwidth.
	if opt.SmoothingHz <= 0 && len(freq) > 1 {
		opt.SmoothingHz = float64(opt.HannWindow) * (freq[1] - freq[0])
	}
	h := ExtractHarmonic(freq, mean, opt)
	pmax, fmax := MaxPeak(h)
	if fmax <= 0 && len(freq) > 0 {
		fmax = freq[len(freq)-1]
	}
	if pmax <= 0 {
		pmax = 1
	}
	b := &Baseline{
		Harmonic: h,
		PMax:     pmax,
		FMax:     fmax,
		PSDMean:  mean,
		PSDVar:   variance,
		Opt:      opt,
	}
	if keep != nil {
		par.ForEach(len(spectra), 0, func(i int) {
			keep(b, i, spectra[i].freq, spectra[i].psd, spectra[i].m)
		})
	}
	return b, nil
}

// SetNormalizers widens Algorithm 1's global normalizers to cover the
// given features (typically every measurement in the training corpus).
// Values smaller than the current normalizers are ignored so the
// healthy exemplar always stays covered.
func (b *Baseline) SetNormalizers(features ...Harmonic) {
	pmax, fmax := MaxPeak(features...)
	if pmax > b.PMax {
		b.PMax = pmax
	}
	if fmax > b.FMax {
		b.FMax = fmax
	}
}

// ErrPSDLength is a vector metric's answer for a record whose spectrum
// is not as long as the baseline's.
var ErrPSDLength = errors.New("feature: PSD length mismatch with baseline")

// VectorScores returns both vector metrics of one record's spectrum:
// its Euclidean distance from the Zone A centroid and its (diagonal)
// Mahalanobis distance to the Zone A distribution. Score's two vector
// cases are this function over transform.PSD, so a caller holding the
// spectrum scores both without a second transform.
func (b *Baseline) VectorScores(psd []float64) (euc, mah float64, err error) {
	if len(psd) != len(b.PSDMean) {
		return 0, 0, ErrPSDLength
	}
	return dsp.EuclideanDistance(psd, b.PSDMean), dsp.MahalanobisDiag(psd, b.PSDMean, b.PSDVar), nil
}

// TemperatureSource provides the FICS temperature channel of the
// factory information and control system, addressed by equipment id.
type TemperatureSource interface {
	Temperature(pumpID int, serviceDays float64) float64
}

// Score computes the metric value of one measurement against the
// baseline. temp supplies the FICS channel and may be nil unless
// MetricTemperature is requested.
func (b *Baseline) Score(m Metric, rec *store.Record, temp TemperatureSource) (float64, error) {
	switch m {
	case MetricPeakHarmonic:
		// The measurement is queue_i and the baseline queue_j, so peaks
		// the worn equipment *adds* (bearing tones, subharmonics,
		// high-frequency noise) are unmatched i-peaks and carry the full
		// ‖(f, p)‖ penalty — the high-frequency-disagreement weighting
		// the paper wants.
		h := HarmonicOfRecord(rec, b.Opt)
		return PeakDistance(h, b.Harmonic, b.PMax, b.FMax, b.Opt)
	case MetricEuclidean, MetricMahalanobis:
		// The spectrum is pooled scratch: a score keeps one number.
		if rec.Samples() != len(b.PSDMean) {
			return 0, ErrPSDLength
		}
		var euc, mah float64
		var err error
		transform.UsePSD(rec, func(_, psd []float64) { euc, mah, err = b.VectorScores(psd) })
		if m == MetricEuclidean {
			return euc, err
		}
		return mah, err
	case MetricTemperature:
		if temp == nil {
			return 0, errors.New("feature: temperature source required")
		}
		return temp.Temperature(rec.PumpID, rec.ServiceDays), nil
	case MetricRMS:
		return transform.RMS(rec), nil
	default:
		return 0, errors.New("feature: unknown metric")
	}
}

// Da computes the paper's headline feature — the peak harmonic distance
// from Zone A — for one record.
func (b *Baseline) Da(rec *store.Record) (float64, error) {
	return b.Score(MetricPeakHarmonic, rec, nil)
}

// DaFromHarmonic computes D_a from an already-extracted harmonic
// feature, letting callers that batch-extract features avoid
// recomputing the PSD and peak search.
func (b *Baseline) DaFromHarmonic(h Harmonic) (float64, error) {
	return PeakDistance(h, b.Harmonic, b.PMax, b.FMax, b.Opt)
}
