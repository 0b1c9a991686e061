// Package feature implements the paper's feature extraction layer
// (§III-B, §IV-B): the RMS and DCT-PSD features, the harmonic-peak
// feature p_n = {(f_k, p_k)} extracted from smoothed PSDs, Algorithm 1
// (the peak harmonic feature distance), and the baseline metrics the
// evaluation compares against — Euclidean distance, (diagonal)
// Mahalanobis distance, and the FICS temperature signal.
package feature

import (
	"errors"
	"math"
	"sort"
	"sync"

	"vibepm/internal/dsp"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// Defaults of the paper's harmonic-peak search (§IV-B).
const (
	// DefaultNumPeaks is n_p, the maximum number of peaks to extract.
	DefaultNumPeaks = 20
	// DefaultHannWindow is n_h, the Hann smoothing window size in bins.
	DefaultHannWindow = 24
)

// Harmonic is the harmonic-peak feature of one measurement: up to n_p
// significant (frequency, amplitude) pairs in ascending frequency
// order, plus the bin width needed to translate the n_h matching
// tolerance into Hz.
type Harmonic struct {
	// Peaks holds the significant spectral peaks.
	Peaks []dsp.Peak
	// BinHz is the spectral resolution (Hz per DCT bin).
	BinHz float64
}

// DefaultMinSignificance is the peak-significance cutoff: peaks below
// this fraction of the strongest peak are treated as noise-floor bumps
// and excluded from the feature. Empirically the simulated harmonics
// sit above 2% of the fundamental while noise-floor peaks stay under
// 0.2%, so 0.5% separates them cleanly.
const DefaultMinSignificance = 0.005

// Options tunes the extraction; zero values select the paper defaults.
type Options struct {
	NumPeaks   int
	HannWindow int
	// SmoothingHz, when positive, pins the Hann smoothing window to a
	// physical width in Hz instead of HannWindow bins, so measurements
	// captured at different sampling rates are smoothed identically.
	// TrainBaseline sets it to HannWindow bins of the training rate.
	SmoothingHz float64
}

func (o Options) fill() Options {
	if o.NumPeaks <= 0 {
		o.NumPeaks = DefaultNumPeaks
	}
	if o.HannWindow <= 0 {
		o.HannWindow = DefaultHannWindow
	}
	return o
}

// ResolvedAt returns o as ExtractHarmonic applies it to a spectrum of
// bins bins, binHz apart: every default filled in and a SmoothingHz pin
// turned into the Hann window it comes to, in bins, at that resolution.
// Two option sets that resolve equal are the same extraction of it.
// A kept Harmonic (its BinHz) and its record (Samples) still tell both
// arguments once the spectrum itself is gone.
func (o Options) ResolvedAt(binHz float64, bins int) Options {
	o = o.fill()
	if o.SmoothingHz > 0 && binHz > 0 {
		// At least 3 bins, and no more than the spectrum: a wider Hann
		// window smooths nothing more, and the ratio is unbounded as
		// the rate approaches zero.
		o.HannWindow = min(max(int(o.SmoothingHz/binHz+0.5), 3), bins)
	}
	o.SmoothingHz = 0
	return o
}

// binWidth is the spectral resolution of a frequency axis (0 for an
// axis of fewer than two bins).
func binWidth(freq []float64) float64 {
	if len(freq) > 1 {
		return freq[1] - freq[0]
	}
	return 0
}

// ExtractHarmonic computes the harmonic-peak feature of a PSD: smooth
// with a Hann window of n_h bins, find first-derivative sign changes,
// drop insignificant noise-floor peaks, keep the n_p largest, sorted by
// frequency.
func ExtractHarmonic(freq, psd []float64, opt Options) Harmonic {
	return ExtractHarmonicInto(nil, freq, psd, opt)
}

// ExtractHarmonicInto is ExtractHarmonic searching for peaks in dst's
// array (dsp.TopPeaksInto): the result's Peaks share it, so a caller
// that pools dst copies out what it keeps.
func ExtractHarmonicInto(dst []dsp.Peak, freq, psd []float64, opt Options) Harmonic {
	binHz := binWidth(freq)
	opt = opt.ResolvedAt(binHz, len(psd))
	peaks := dsp.TopPeaksInto(dst, freq, psd, opt.NumPeaks, opt.HannWindow)
	var top float64
	for _, p := range peaks {
		if p.Value > top {
			top = p.Value
		}
	}
	cut := top * DefaultMinSignificance
	kept := peaks[:0]
	for _, p := range peaks {
		if p.Value >= cut {
			kept = append(kept, p)
		}
	}
	return Harmonic{Peaks: kept, BinHz: binHz}
}

// HarmonicOfRecord extracts the harmonic feature directly from a stored
// measurement via the combined 3-axis DCT PSD. The PSD work arrays are
// pooled; only the returned peak list is allocated.
func HarmonicOfRecord(rec *store.Record, opt Options) (h Harmonic) {
	transform.UsePSD(rec, func(freq, psd []float64) { h = ExtractHarmonic(freq, psd, opt) })
	return h
}

// MaxPeak returns the largest peak amplitude and frequency across a set
// of harmonic features — the p_max and f_max normalizers of
// Algorithm 1.
func MaxPeak(features ...Harmonic) (pmax, fmax float64) {
	for _, h := range features {
		for _, p := range h.Peaks {
			if p.Value > pmax {
				pmax = p.Value
			}
			if p.Freq > fmax {
				fmax = p.Freq
			}
		}
	}
	return pmax, fmax
}

// ErrEmptyFeature is returned when a distance is requested against a
// feature without peaks.
var ErrEmptyFeature = errors.New("feature: empty harmonic feature")

// PeakDistance implements the paper's Algorithm 1, the peak harmonic
// feature distance D_ij between two harmonic features. Peak values are
// normalized by pmax and frequencies by fmax (pass 0 for either to
// derive them from the two features). For every peak of a, the nearest
// peak of b in frequency is located by binary search; peaks closer than
// the smoothing tolerance (n_h bins, i.e. n_h·BinHz in Hz) are matched
// and contribute their normalized Euclidean gap, unmatched peaks
// contribute their own normalized magnitude, and b's leftover peaks are
// added as pure penalty. The result approximates ‖p_i − p_j‖ while
// penalizing disagreement at high frequencies more — the property the
// paper wants, since failing equipment radiates high-frequency noise.
func PeakDistance(a, b Harmonic, pmax, fmax float64, opt Options) (float64, error) {
	if len(a.Peaks) == 0 || len(b.Peaks) == 0 {
		return 0, ErrEmptyFeature
	}
	opt = opt.fill()
	if pmax <= 0 || fmax <= 0 {
		dp, df := MaxPeak(a, b)
		if pmax <= 0 {
			pmax = dp
		}
		if fmax <= 0 {
			fmax = df
		}
	}
	if pmax <= 0 {
		pmax = 1
	}
	if fmax <= 0 {
		fmax = 1
	}
	// The matching tolerance is n_h bins of the *reference* feature
	// (queue_j, normally the trained baseline): anchoring it to the
	// baseline's spectral resolution keeps D_a consistent when the
	// adaptive scheduler changes the measurement's sampling rate — a
	// measurement-denominated tolerance would loosen at high rates and
	// tighten at low ones.
	binHz := b.BinHz
	if binHz <= 0 {
		binHz = a.BinHz
	}
	if binHz <= 0 {
		binHz = 1
	}
	tolHz := float64(opt.HannWindow) * binHz

	// Working copies of b's queue, ascending in frequency (pooled: the
	// distance runs once per measurement on the scoring hot path).
	sc := pdPool.Get().(*pdScratch)
	bf := resize(sc.bf, len(b.Peaks))
	bp := resize(sc.bp, len(b.Peaks))
	used := sc.used
	if cap(used) < len(b.Peaks) {
		used = make([]bool, len(b.Peaks))
	}
	used = used[:len(b.Peaks)]
	for i, p := range b.Peaks {
		bf[i] = p.Freq
		bp[i] = p.Value
		used[i] = false
	}

	var sum float64
	var cnt int
	for _, pa := range a.Peaks {
		fi := pa.Freq / fmax
		pi := pa.Value / pmax
		j := nearestUnused(bf, used, pa.Freq)
		var d float64
		if j >= 0 && abs(pa.Freq-bf[j]) < tolHz {
			fj := bf[j] / fmax
			pj := bp[j] / pmax
			d = hypot(fi-fj, pi-pj)
			used[j] = true
		} else {
			// Unmatched: the peak itself is the disagreement.
			d = hypot(fi, pi)
		}
		sum += d
		cnt++
	}
	// Remaining peaks of b penalize the distance.
	var rest float64
	var restCnt int
	for j := range bp {
		if !used[j] {
			rest += bp[j] / pmax
			restCnt++
		}
	}
	sc.bf, sc.bp, sc.used = bf, bp, used
	pdPool.Put(sc)
	return (sum + rest) / float64(cnt+restCnt), nil
}

// pdScratch pools PeakDistance's working copies of the reference queue.
type pdScratch struct {
	bf, bp []float64
	used   []bool
}

var pdPool = sync.Pool{New: func() any { return &pdScratch{} }}

// resize reslices s to length n, allocating only when the capacity is
// short.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// nearestUnused finds the index of the unused entry of sorted fs
// closest to f, or -1.
func nearestUnused(fs []float64, used []bool, f float64) int {
	i := sort.SearchFloat64s(fs, f)
	best, bestGap := -1, 0.0
	for _, cand := range []int{i - 1, i, i + 1} {
		// Expand to the nearest unused neighbours on both sides.
		for k := cand; k >= 0 && k < len(fs); {
			if !used[k] {
				gap := abs(fs[k] - f)
				if best < 0 || gap < bestGap {
					best, bestGap = k, gap
				}
				break
			}
			if cand < i {
				k--
			} else {
				k++
			}
		}
	}
	return best
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func hypot(a, b float64) float64 {
	return math.Sqrt(a*a + b*b)
}
