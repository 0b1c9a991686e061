package dsp

import "errors"

// WelchConfig controls Welch's averaged-periodogram PSD estimate. Each
// segment is tapered with a Hann window.
type WelchConfig struct {
	// SegmentLength is the per-segment FFT length (default 256).
	SegmentLength int
	// Overlap is the fraction of segment overlap, clamped to
	// [0, 0.95]; the zero value is no overlap (disjoint segments).
	Overlap float64
}

// ErrShortSignal is returned when a signal is shorter than one analysis
// segment or frame.
var ErrShortSignal = errors.New("dsp: signal shorter than one segment")

// welchParams resolves the effective segment length, hop, and window of
// a config against a signal length.
func (cfg WelchConfig) params(n int) (seg, step int, window []float64) {
	seg = cfg.SegmentLength
	if seg <= 0 {
		seg = 256
	}
	if seg > n {
		seg = n
	}
	overlap := cfg.Overlap
	if overlap < 0 {
		overlap = 0
	}
	if overlap > 0.95 {
		overlap = 0.95
	}
	step = int(float64(seg) * (1 - overlap))
	if step < 1 {
		step = 1
	}
	return seg, step, hannCached(seg)
}

// Welch estimates the one-sided PSD of x (sampled at fs Hz) by
// averaging windowed, overlapped periodograms — the classic
// variance-reduced alternative to the paper's single DCT periodogram.
// It is used by the smoothing ablation: Welch trades frequency
// resolution for amplitude stability, which blurs closely spaced
// harmonics the peak-matching distance depends on.
func Welch(x []float64, fs float64, cfg WelchConfig) (freq, psd []float64, err error) {
	if len(x) == 0 {
		return nil, nil, ErrEmptySignal
	}
	seg, _, _ := cfg.params(len(x))
	half := seg/2 + 1
	freq = make([]float64, half)
	psd = make([]float64, half)
	if err := WelchInto(freq, psd, x, fs, cfg); err != nil {
		return nil, nil, err
	}
	return freq, psd, nil
}

// WelchInto is Welch writing into caller-owned freq and psd slices,
// both of which must have length SegmentLength/2+1 (after the segment
// length is clamped to len(x)). All transient work arrays come from the
// scratch pool and segment transforms run on cached plans, so
// steady-state calls are allocation-free.
func WelchInto(freq, psd []float64, x []float64, fs float64, cfg WelchConfig) error {
	if len(x) == 0 {
		return ErrEmptySignal
	}
	if !validRate(fs) {
		return errBadRate
	}
	seg, step, window := cfg.params(len(x))
	half := seg/2 + 1
	if len(freq) != half || len(psd) != half {
		return errors.New("dsp: WelchInto output length must be SegmentLength/2+1")
	}
	// Window power normalization.
	var wp float64
	for _, w := range window {
		wp += w * w
	}
	for k := range psd {
		psd[k] = 0
	}
	dbuf := getFBuf(len(x))
	demeaned := DemeanInto(dbuf.s, x)
	fftBuf := getCBuf(seg)
	segments := 0
	for start := 0; start+seg <= len(demeaned); start += step {
		chunk := demeaned[start : start+seg]
		for i, v := range chunk {
			fftBuf.s[i] = complex(v*window[i], 0)
		}
		FFT(fftBuf.s)
		accumulateOneSidedPSD(psd, fftBuf.s[:half], seg, fs*wp)
		segments++
	}
	putCBuf(fftBuf)
	putFBuf(dbuf)
	if segments == 0 {
		return ErrShortSignal
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

// accumulateOneSidedPSD folds one segment's half-spectrum into acc with
// the one-sided density normalization 1/norm, doubling interior bins.
func accumulateOneSidedPSD(acc []float64, spec []complex128, n int, norm float64) {
	half := len(spec)
	for k, m := range spec {
		p := (real(m)*real(m) + imag(m)*imag(m)) / norm
		if k != 0 && !(n%2 == 0 && k == half-1) {
			p *= 2
		}
		acc[k] += p
	}
}
