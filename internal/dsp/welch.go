package dsp

import "errors"

// errSegment is Welch's refusal of a segment length that is not
// positive, or that leaves two samples, whose Hann window is all zero.
var errSegment = errors.New("dsp: Welch segment length must be positive and not 2")

// Welch estimates the one-sided PSD of x (sampled at fs Hz) by
// averaging the periodograms of its disjoint, Hann-tapered segments of
// seg samples (seg clamped to len(x); two is refused) — the classic
// variance-reduced alternative to the paper's single DCT periodogram.
// It is used by the spectral estimator ablation: Welch trades
// frequency resolution for amplitude stability, which blurs closely
// spaced harmonics the peak-matching distance depends on. A tail
// shorter than seg is dropped.
func Welch(x []float64, fs float64, seg int) (freq, psd []float64, err error) {
	if seg <= 0 {
		return nil, nil, errSegment
	}
	half := min(seg, len(x))/2 + 1
	freq, psd = make([]float64, half), make([]float64, half)
	if err := WelchInto(freq, psd, x, fs, seg); err != nil {
		return nil, nil, err
	}
	return freq, psd, nil
}

// WelchInto is Welch writing into caller-owned freq and psd slices,
// both of which must have length min(seg, len(x))/2+1. Each segment's
// spectrum is oneSided's over the shared Hann window, so steady-state
// calls are allocation-free.
func WelchInto(freq, psd []float64, x []float64, fs float64, seg int) error {
	if len(x) == 0 {
		return ErrEmptySignal
	}
	if !validRate(fs) {
		return errBadRate
	}
	if seg <= 0 {
		return errSegment
	}
	seg = min(seg, len(x))
	half := seg/2 + 1
	if len(freq) != half || len(psd) != half {
		return errors.New("dsp: WelchInto output length must be min(seg, len(x))/2+1")
	}
	window := hannCached(seg)
	var wp float64
	for _, w := range window {
		wp += float64(w * w)
	}
	if wp == 0 {
		return errSegment
	}
	clear(psd)
	mu, scale := Mean(x), 1/(fs*wp)
	segments := len(x) / seg
	for s := 0; s < segments; s++ {
		oneSided(psd, x[s*seg:(s+1)*seg], window, mu, scale)
	}
	for k := range freq {
		freq[k] = float64(k) * fs / float64(seg)
	}
	inv := 1 / float64(segments)
	for k := range psd {
		psd[k] *= inv
	}
	return nil
}
