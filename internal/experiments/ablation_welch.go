package experiments

import (
	"fmt"

	"vibepm/internal/core"
	"vibepm/internal/dsp"
	"vibepm/internal/feature"
	"vibepm/internal/physics"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// WelchResult compares the paper's single DCT periodogram against a
// Welch averaged-periodogram front end for the harmonic-peak pipeline.
// Welch stabilizes per-bin amplitudes but blurs frequency resolution;
// the ablation measures which effect wins for zone classification.
type WelchResult struct {
	// Accuracy of the full pipeline per spectral estimator.
	DCTAccuracy   float64
	WelchAccuracy float64
	// SegmentLength is the Welch segment size used.
	SegmentLength int
}

// welchPSD is the Welch front end: each axis's counts in g through
// dsp.Welch with seg-sample segments, the three spectra summed.
func welchPSD(rec *store.Record, seg int) (freq, combined []float64, err error) {
	for axis := 0; axis < 3; axis++ {
		g := transform.CountsToG(rec.Raw[axis], rec.ScaleG)
		f, psd, err := dsp.Welch(g, rec.SampleRateHz, seg)
		if err != nil {
			return nil, nil, err
		}
		if combined == nil {
			combined = make([]float64, len(psd))
			freq = f
		}
		for i, v := range psd {
			combined[i] += v
		}
	}
	return freq, combined, nil
}

// welchHarmonic extracts the harmonic feature from a Welch PSD of the
// record's three axes combined.
func welchHarmonic(rec *store.Record, seg int, opt feature.Options) (feature.Harmonic, error) {
	freq, combined, err := welchPSD(rec, seg)
	if err != nil {
		return feature.Harmonic{}, err
	}
	return feature.ExtractHarmonic(freq, combined, opt), nil
}

// AblationWelch trains and evaluates both pipelines on the corpus's
// labelled records (in-corpus accuracy, matching AblationPeakParams'
// protocol).
func AblationWelch(c *Corpus) (*WelchResult, error) {
	const seg = 512
	res := &WelchResult{SegmentLength: seg}

	// DCT pipeline: the engine is already fitted.
	dctConf := core.NewConfusion()
	for _, lr := range c.Dataset.ValidLabelled() {
		zone, _, err := c.Engine.Classify(lr.Record)
		if err != nil {
			continue
		}
		dctConf.Add(lr.Zone, zone)
	}
	res.DCTAccuracy = dctConf.Accuracy()

	// Welch pipeline: baseline = harmonic feature of the mean healthy
	// Welch PSD; distances via Algorithm 1 with global normalizers;
	// Gaussian zone classifier on the distances.
	opt := feature.Options{}
	var healthyMean []float64
	var freq []float64
	healthyN := 0
	labelled := c.Dataset.ValidLabelled()
	for _, lr := range labelled {
		if lr.Zone != physics.MergedA {
			continue
		}
		f, combined, err := welchPSD(lr.Record, seg)
		if err != nil {
			return nil, err
		}
		freq = f
		if healthyMean == nil {
			healthyMean = make([]float64, len(combined))
		}
		for i, v := range combined {
			healthyMean[i] += v
		}
		healthyN++
	}
	if healthyN == 0 {
		return nil, fmt.Errorf("experiments: no healthy records for the Welch baseline")
	}
	for i := range healthyMean {
		healthyMean[i] /= float64(healthyN)
	}
	baselineH := feature.ExtractHarmonic(freq, healthyMean, opt)

	// Extract features, set global normalizers, score distances.
	features := make([]feature.Harmonic, len(labelled))
	for i, lr := range labelled {
		h, err := welchHarmonic(lr.Record, seg, opt)
		if err != nil {
			return nil, err
		}
		features[i] = h
	}
	pmax, fmax := feature.MaxPeak(append(features, baselineH)...)
	var samples []core.Sample
	for i, lr := range labelled {
		d, err := feature.PeakDistance(features[i], baselineH, pmax, fmax, opt)
		if err != nil {
			continue
		}
		samples = append(samples, core.Sample{Score: d, Zone: lr.Zone})
	}
	classifier, err := core.TrainGaussian(samples)
	if err != nil {
		return nil, err
	}
	res.WelchAccuracy = core.Evaluate(classifier, samples).Accuracy()
	return res, nil
}

// String renders the comparison.
func (r *WelchResult) String() string {
	return fmt.Sprintf("spectral estimator ablation: DCT periodogram accuracy %.3f vs Welch (%d-sample segments) %.3f\n",
		r.DCTAccuracy, r.SegmentLength, r.WelchAccuracy)
}
