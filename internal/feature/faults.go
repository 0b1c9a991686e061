package feature

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"vibepm/internal/dsp"
	"vibepm/internal/obs"
	"vibepm/internal/physics"
	"vibepm/internal/store"
	"vibepm/internal/transform"
)

// The fault detectors classify one measurement into the standard
// rotating-machine taxonomy (bearing defect, imbalance, misalignment,
// looseness, or healthy) with no ML in the calculation path: every
// score is a deterministic spectral statistic compared against a fixed
// threshold, and every decision ships the raw numbers behind it as
// Evidence. The four scores are
//
//   - imbalance:     1× rotor energy relative to the rolloff-corrected
//     harmonic comb reference (a healthy spectrum has E(h) ∝ h^-1.6,
//     so E(h)·h^1.6 is flat; imbalance lifts only the 1× term),
//   - misalignment:  the same excess statistic at 2×, plus the
//     axial/radial energy ratio to tell angular from parallel,
//   - looseness:     the median SNR of the half-order sub/super-
//     harmonics (0.5×, 1.5×, 2.5×) against the local noise floor,
//   - bearing:       the envelope-spectrum SNR at the geometry's
//     computed defect frequencies (BPFO/BPFI/BSF), the classic
//     demodulation diagnosis.
//
// Ratio- and SNR-based statistics are invariant under the lognormal
// load-gain fluctuation of the synthesis model (and under unknown
// sensor gain on imported data), which is what makes fixed thresholds
// workable.

// MachineSpec is what the detector needs to know about the monitored
// machine: the nominal shaft speed and the bearing geometry. A zero
// RotorHz asks the detector to estimate the speed from the spectrum
// (imported lab recordings); a zero Bearing selects
// physics.DefaultBearing.
type MachineSpec struct {
	// RotorHz is the nominal shaft speed (0 = estimate from spectrum).
	RotorHz float64 `json:"rotor_hz,omitempty"`
	// Bearing is the rolling-element bearing geometry.
	Bearing physics.BearingGeometry `json:"bearing,omitempty"`
}

// The detector's calibrated thresholds. They are set empirically
// against the synthesis model so that healthy pumps at wear ≤ 0.5 never
// cross a threshold while every injected fault at severity 1.0 does (the
// golden classification gate); see TestFaultDetectorCalibration for the
// score distributions they separate.
const (
	// DefaultFreqTolFrac is the half-width of every matching band as a
	// fraction of the target frequency (floored at 2 spectral bins).
	DefaultFreqTolFrac = 0.015
	// DefaultImbalanceExcess is the 1× excess-over-comb threshold.
	DefaultImbalanceExcess = 3.0
	// DefaultMisalignExcess is the 2× excess-over-comb threshold.
	DefaultMisalignExcess = 3.0
	// DefaultLoosenessSNR is the half-order subharmonic SNR threshold.
	DefaultLoosenessSNR = 12.0
	// DefaultBearingSNR is the envelope-spectrum defect-frequency SNR
	// threshold.
	DefaultBearingSNR = 12.0
	// DefaultMinRotorHz bounds the rotor-speed search from below.
	DefaultMinRotorHz = 5.0
	// DefaultMinFaultSamples is the shortest capture the detector will
	// classify.
	DefaultMinFaultSamples = 256
	// halfCombRise gates the octave promotion in estimateRotorHz: the
	// comb-scan winner is read as a half-rate comb when the position-5
	// band energy exceeds halfCombRise × the position-4 band energy.
	// Calibrated against the synthesis model (see DESIGN §15): genuine
	// rotor combs measure E(5×)/E(4×) ≤ 0.88 everywhere, half-rate
	// winners ≥ 1.10.
	halfCombRise = 1.05
)

// Evidence is one named spectral statistic behind a fault decision.
type Evidence struct {
	// Name identifies the statistic ("1x-excess", "env-BPFO", ...).
	Name string `json:"name"`
	// Freq is the frequency the statistic was evaluated at (Hz; 0 for
	// dimensionless ratios).
	Freq float64 `json:"freq,omitempty"`
	// Value is the statistic's value.
	Value float64 `json:"value"`
}

// FaultReport is the classification of one measurement: the winning
// class, a confidence in [0, 1], and the evidence trail. For
// FaultBearing the Defect names the matched defect frequency.
type FaultReport struct {
	// Class is the detected fault class (FaultNone = healthy).
	Class physics.FaultClass `json:"class"`
	// Confidence grades the decision in [0, 1]: for a detected fault,
	// how far past its threshold the winning score sits; for a healthy
	// verdict, how far below every threshold the scores stay.
	Confidence float64 `json:"confidence"`
	// Defect is the matched bearing defect frequency name ("BPFO",
	// "BPFI", "BSF"); empty unless Class is FaultBearing.
	Defect string `json:"defect,omitempty"`
	// RotorHz is the shaft speed the analysis ran at (provided or
	// estimated).
	RotorHz float64 `json:"rotor_hz"`
	// Evidence lists every statistic the decision weighed, in a fixed
	// deterministic order.
	Evidence []Evidence `json:"evidence,omitempty"`
}

// DetectRecord classifies one stored measurement. It is a pure
// function of (record, spec): repeated calls return identical reports,
// which is what the live-vs-batch equivalence and golden harnesses pin.
func DetectRecord(rec *store.Record, spec MachineSpec) FaultReport {
	k := rec.Samples()
	if k < DefaultMinFaultSamples || rec.SampleRateHz <= 0 {
		return FaultReport{Class: physics.FaultNone, Evidence: []Evidence{
			{Name: "insufficient-data", Value: float64(k)},
		}}
	}
	fs := rec.SampleRateHz
	sc := detectPool.Get().(*detectScratch)
	defer detectPool.Put(sc)
	for axis := range sc.axis {
		sc.axis[axis] = transform.CountsToGInto(sc.axis[axis], rec.Raw[axis], rec.ScaleG)
	}
	x, y, z := sc.axis[0], sc.axis[1], sc.axis[2]

	var err error
	if sc.freq, sc.px, err = dsp.PeriodogramInto(sc.freq, sc.px, x, fs); err != nil {
		return FaultReport{Class: physics.FaultNone}
	}
	// The frequency axis depends only on (k, fs): every later transform
	// rewrites sc.freq with the same values.
	sc.freq, sc.py, _ = dsp.PeriodogramInto(sc.freq, sc.py, y, fs)
	sc.freq, sc.pz, _ = dsp.PeriodogramInto(sc.freq, sc.pz, z, fs)
	px, py, pz := sc.px, sc.py, sc.pz

	// Radial spectrum: the two radial axes carry the same recipe, so
	// summing their periodograms halves the estimator variance.
	sc.rp = resize(sc.rp, len(px))
	rp := sc.rp
	for i := range rp {
		rp[i] = px[i] + py[i]
	}
	binHz := fs / float64(k)

	rotor := spec.RotorHz
	estimated := false
	if rotor <= 0 {
		rotor = estimateRotorHz(sc.freq, rp, &sc.rank)
		estimated = true
	}
	if rotor <= 0 || rotor < DefaultMinRotorHz || 6*rotor >= fs/2 {
		return FaultReport{Class: physics.FaultNone, Evidence: []Evidence{
			{Name: "rotor-unresolved", Freq: rotor},
		}}
	}

	band := func(psd []float64, f0 float64) float64 {
		return bandEnergy(psd, f0, binHz, DefaultFreqTolFrac)
	}
	// These six floor medians (three half-order lines on rp, three
	// defect lines on pe) select in place: a rank index like the rotor
	// scan's costs ~20 µs to build on 513 bins and pays for itself only
	// over hundreds of queries.
	snr := func(psd []float64, f0 float64) float64 {
		return bandStat(psd, f0, binHz, DefaultFreqTolFrac, &sc.floor)
	}

	// Rolloff-corrected comb reference: healthy harmonic energies obey
	// E(h) ∝ h^-1.6 (amplitude rolloff h^-0.8 squared), so E(h)·h^1.6
	// is flat across the comb. The median over h = 3..6 is a reference
	// level the 1× and 2× faults cannot move.
	var corr [4]float64
	for i := range corr {
		h := float64(i + 3)
		corr[i] = band(rp, h*rotor) * math.Pow(h, combRolloff)
	}
	ref := median4(corr)
	if ref <= 0 {
		ref = math.SmallestNonzeroFloat64
	}
	e1 := band(rp, rotor)
	e2 := band(rp, 2*rotor)
	imbExcess := e1 / ref
	misExcess := e2 * math.Pow(2, combRolloff) / ref

	// Axial involvement: angular misalignment loads the axial axis,
	// parallel misalignment and imbalance do not.
	axial := (band(pz, rotor) + band(pz, 2*rotor)) / math.Max(e1+e2, math.SmallestNonzeroFloat64)

	// Half-order comb: looseness streams in 0.5×, 1.5×, 2.5×. The
	// median of the three SNRs demands a majority of the comb, so one
	// coincidental spectral line cannot fire the detector.
	half := [3]float64{
		snr(rp, 0.5*rotor),
		snr(rp, 1.5*rotor),
		snr(rp, 2.5*rotor),
	}
	looseSNR := median3(half)

	// Envelope spectrum over the radial axes: bearing impact trains
	// demodulate to peaks at the defect passing frequency regardless of
	// which resonance carries them.
	var envSNR [3]float64 // BPFO, BPFI, BSF
	geometry := spec.Bearing
	envFreqOf := [3]float64{}
	if sc.freq, sc.pe, err = dsp.EnvelopeSpectrumInto(sc.freq, sc.pe, x, fs); err == nil {
		pe := sc.pe
		if sc.freq, sc.pe2, err = dsp.EnvelopeSpectrumInto(sc.freq, sc.pe2, y, fs); err == nil {
			for i := range pe {
				pe[i] += sc.pe2[i]
			}
		}
		for i, defect := range bearingCandidates {
			fd := geometry.DefectHz(defect, rotor)
			envFreqOf[i] = fd
			if fd < 3*binHz || fd > 0.45*fs/2 {
				continue
			}
			// A defect frequency too close to an integer rotor multiple
			// is indistinguishable from ordinary harmonic beating in the
			// envelope; skip it rather than risk a false positive.
			if nearInteger(fd, rotor, bandHalfWidth(fd, binHz, DefaultFreqTolFrac)) {
				continue
			}
			envSNR[i] = snr(pe, fd)
		}
	}
	bestDefect := 0
	for i := 1; i < len(envSNR); i++ {
		if envSNR[i] > envSNR[bestDefect] {
			bestDefect = i
		}
	}
	bearSNR := envSNR[bestDefect]

	// Normalized scores: q ≥ 1 means past threshold.
	qs := [4]struct {
		class physics.FaultClass
		q     float64
	}{
		{physics.FaultBearing, bearSNR / DefaultBearingSNR},
		{physics.FaultImbalance, imbExcess / DefaultImbalanceExcess},
		{physics.FaultMisalignment, misExcess / DefaultMisalignExcess},
		{physics.FaultLooseness, looseSNR / DefaultLoosenessSNR},
	}
	best := qs[0]
	for _, c := range qs[1:] {
		if c.q > best.q {
			best = c
		}
	}

	report := FaultReport{RotorHz: rotor}
	if best.q >= 1 {
		report.Class = best.class
		report.Confidence = round6(best.q / (1 + best.q))
		if best.class == physics.FaultBearing {
			report.Defect = bearingCandidates[bestDefect].String()
		}
	} else {
		report.Class = physics.FaultNone
		report.Confidence = round6(clamp01(1 - best.q))
	}

	ev := make([]Evidence, 0, 8)
	if estimated {
		ev = append(ev, Evidence{Name: "rotor-estimated", Freq: round6(rotor), Value: 1})
	}
	ev = append(ev,
		Evidence{Name: "1x-excess", Freq: round6(rotor), Value: round6(imbExcess)},
		Evidence{Name: "2x-excess", Freq: round6(2 * rotor), Value: round6(misExcess)},
		Evidence{Name: "axial-ratio", Value: round6(axial)},
		Evidence{Name: "half-order-snr", Freq: round6(0.5 * rotor), Value: round6(looseSNR)},
	)
	for i := range bearingCandidates {
		ev = append(ev, Evidence{
			Name:  envEvidence[i],
			Freq:  round6(envFreqOf[i]),
			Value: round6(envSNR[i]),
		})
	}
	report.Evidence = ev
	return report
}

// bearingCandidates are the defect frequencies the detector matches.
// FTF is excluded: cage frequencies sit below the half-order comb and
// are not separable from looseness at the evaluation resolution.
var bearingCandidates = [3]physics.BearingDefect{
	physics.DefectOuterRace, physics.DefectInnerRace, physics.DefectBall,
}

// envEvidence names the envelope statistic of each bearing candidate.
var envEvidence = [3]string{"env-BPFO", "env-BPFI", "env-BSF"}

// detectScratch pools every transient array of one DetectRecord call —
// the three axes in g, the frequency axis, the five spectra with their
// radial sum, the floor-median work area and the rotor scan's rank
// index — so the only steady-state allocation of a classification is
// the Evidence slice it returns.
type detectScratch struct {
	axis           [3][]float64
	freq           []float64
	px, py, pz, rp []float64
	pe, pe2        []float64
	floor          []float64
	rank           floorIndex
}

var detectPool = sync.Pool{New: func() any { return new(detectScratch) }}

// combRolloff is the healthy harmonic PSD rolloff exponent: amplitude
// ∝ h^-0.8, so energy ∝ h^-1.6.
const combRolloff = 1.6

// bandHalfWidth is the matching half-width at f0: a fraction of the
// target floored at two spectral bins, so the band always spans the
// main lobe of a leaked tone.
func bandHalfWidth(f0, binHz, tolFrac float64) float64 {
	hw := tolFrac * f0
	if min := 2 * binHz; hw < min {
		hw = min
	}
	return hw
}

// bandBins is the matching band around f0 as an inclusive bin range
// clamped to the spectrum (ok false when it is empty), with the
// half-width it was cut from.
func bandBins(n int, f0, binHz, tolFrac float64) (lo, hi int, hw float64, ok bool) {
	if binHz <= 0 || f0 <= 0 {
		return 0, 0, 0, false
	}
	hw = bandHalfWidth(f0, binHz, tolFrac)
	lo = int(math.Ceil((f0 - hw) / binHz))
	hi = int(math.Floor((f0 + hw) / binHz))
	if lo < 0 {
		lo = 0
	}
	if hi > n-1 {
		hi = n - 1
	}
	return lo, hi, hw, hi >= lo
}

// bandEnergy sums the PSD over the matching band around f0.
func bandEnergy(psd []float64, f0, binHz, tolFrac float64) (energy float64) {
	lo, hi, _, ok := bandBins(len(psd), f0, binHz, tolFrac)
	if !ok {
		return 0
	}
	for _, p := range psd[lo : hi+1] {
		energy += p
	}
	return energy
}

// bandFloor is the matching band around f0 as an inclusive bin range
// [lo, hi] with its floor window [flo, fhi] — the band widened to ±8
// half-widths, both clamped to the spectrum (ok false when the band is
// empty). flo <= lo and hi <= fhi.
func bandFloor(n int, f0, binHz, tolFrac float64) (flo, lo, hi, fhi int, ok bool) {
	lo, hi, hw, ok := bandBins(n, f0, binHz, tolFrac)
	if !ok {
		return 0, 0, 0, 0, false
	}
	flo = int(math.Ceil((f0 - 8*hw) / binHz))
	fhi = int(math.Floor((f0 + 8*hw) / binHz))
	if flo < 0 {
		flo = 0
	}
	if fhi > n-1 {
		fhi = n - 1
	}
	return flo, lo, hi, fhi, true
}

// bandSNR rates the band psd[lo:hi+1] against a floor bin level: its
// energy over what the floor would put in as many bins.
func bandSNR(psd []float64, lo, hi int, floor float64) float64 {
	var energy float64
	for _, p := range psd[lo : hi+1] {
		energy += p
	}
	denom := floor * float64(hi-lo+1)
	if denom <= 0 {
		if energy <= 0 {
			return 0
		}
		return math.Inf(1)
	}
	return energy / denom
}

// bandStat is the band's rating against the local floor — the median
// bin level of the floor window, excluding the band itself (SNR). The
// floor bins are copied into *work (grown as needed) and the median is
// selected there.
func bandStat(psd []float64, f0, binHz, tolFrac float64, work *[]float64) (snr float64) {
	flo, lo, hi, fhi, ok := bandFloor(len(psd), f0, binHz, tolFrac)
	if !ok {
		return 0
	}
	floorBins := append(append((*work)[:0], psd[flo:lo]...), psd[hi+1:fhi+1]...)
	*work = floorBins
	if len(floorBins) == 0 {
		return 0
	}
	return bandSNR(psd, lo, hi, upperMedian(floorBins))
}

// upperMedian returns the element sort.Float64s would leave at
// v[len(v)/2] — NaNs order before every number there — by in-place
// selection instead of a full sort. v is permuted.
func upperMedian(v []float64) float64 {
	// NaNs compare false both ways and would derail the partition
	// scans, so they are swapped to the front, where the sort puts them.
	nan := 0
	for i, x := range v {
		if x != x {
			v[i], v[nan] = v[nan], x
			nan++
		}
	}
	k := len(v) / 2
	if k < nan {
		return v[k]
	}
	return selectKth(v[nan:], k-nan)
}

// selectKth returns the k-th smallest element of v (0-based), which
// must hold no NaN, permuting v. It is quickselect with both partition
// loops written branch-free (the comparison feeds an add, not a jump):
// on spectral noise every comparison is a coin flip, and a mispredicted
// jump costs more than the rest of the loop body.
func selectKth(v []float64, k int) float64 {
	lo, hi := 0, len(v)-1
	for hi-lo > 8 {
		// Pivot: the median of the first, middle and last elements.
		a, b, c := v[lo], v[lo+(hi-lo)/2], v[hi]
		if a > b {
			a, b = b, a
		}
		if b > c {
			b = c
		}
		if a > b {
			b = a
		}
		pivot := b
		// v[lo:p] < pivot <= v[p:hi+1].
		p := lo
		for i := lo; i <= hi; i++ {
			x := v[i]
			v[i] = v[p]
			v[p] = x
			less := 0
			if x < pivot {
				less = 1
			}
			p += less
		}
		switch {
		case k < p:
			hi = p - 1
		case p > lo:
			lo = p
		default:
			// The pivot is the range's minimum, so nothing moved. Take
			// all its copies off at once — a flat spectrum (a dead
			// sensor's record) is one long tie — v[lo:q] == pivot.
			q := lo
			for i := lo; i <= hi; i++ {
				x := v[i]
				v[i] = v[q]
				v[q] = x
				same := 0
				if x <= pivot {
					same = 1
				}
				q += same
			}
			if k < q {
				return pivot
			}
			lo = q
		}
	}
	for i := lo + 1; i <= hi; i++ {
		x := v[i]
		j := i
		for ; j > lo && v[j-1] > x; j-- {
			v[j] = v[j-1]
		}
		v[j] = x
	}
	return v[k]
}

// nearInteger reports whether f sits within tol of an integer multiple
// of base.
func nearInteger(f, base, tol float64) bool {
	if base <= 0 {
		return false
	}
	m := math.Round(f / base)
	if m < 1 {
		m = 1
	}
	return math.Abs(f-m*base) < tol
}

// estimateRotorHz recovers the shaft speed from a radial spectrum when
// the machine spec does not provide one (imported recordings). Every
// candidate fundamental in [DefaultMinRotorHz, fs/8] is scored against the
// integer harmonic comb (Σ log(1+SNR) over h = 1..6); anchoring on the
// single strongest line is not safe because on worn machines a defect
// tone (3.58×) or a subharmonic (2.5×) can out-power the 1× line, and
// no fixed multiple of such an anchor recovers the rotor. The comb
// argmax can still land an octave low — a half-order-rich spectrum
// (severe looseness, late-life wear) carries lines at every multiple
// of f0/2, and past-wear-out the 0.5× line out-powers 1× — so the
// winner is promoted one octave when its comb rises from position 4
// to position 5 (the structural signature of a half-order comb; a
// genuine rotor comb always decays there — see halfCombRise). The
// result is refined to sub-bin accuracy from the highest-SNR harmonic
// line. Every floor median is read from ix, rebuilt here over psd.
func estimateRotorHz(freq, psd []float64, ix *floorIndex) float64 {
	if len(freq) < 4 {
		return 0
	}
	binHz := freq[1] - freq[0]
	if binHz <= 0 {
		return 0
	}
	fs2 := freq[len(freq)-1]
	hiHz := fs2 / 4 // fs/8
	ix.build(psd)

	combScore := func(f0 float64) float64 {
		if f0 < DefaultMinRotorHz || 6*f0 > fs2 {
			return math.Inf(-1)
		}
		var s float64
		for h := 1; h <= 6; h++ {
			sn := ix.bandStat(psd, float64(h)*f0, binHz, DefaultFreqTolFrac)
			s += math.Log1p(sn)
		}
		return s
	}

	// Scan candidates with a relative step of half the matching
	// tolerance so adjacent candidates' combs overlap; never finer
	// than the bin width (the PSD cannot resolve below it).
	best := math.Inf(-1)
	bestF := 0.0
	for f0 := math.Max(DefaultMinRotorHz, binHz); f0 <= hiHz; {
		if s := combScore(f0); s > best {
			best = s
			bestF = f0
		}
		f0 += math.Max(binHz, f0*DefaultFreqTolFrac/2)
	}
	if bestF <= 0 || math.IsInf(best, -1) {
		return 0
	}

	// Octave correction. A half-order-rich spectrum (severe looseness,
	// late-life rub) carries lines at every multiple of f0/2, so the
	// scan can land on the half-rate comb. The tell that separates
	// that from a genuine rotor at bestF is the 4×/5× decay: a real
	// rotor comb always decays from position 4 to position 5 (the
	// h^-0.8 rolloff beats every modeled amplification — wear boost,
	// looseness coarsening, misalignment — measured E(5×)/E(4×) ≤ 0.88
	// across all classes and wear), while at a half-rate winner
	// position 5 is the 2.5× half-order of the true rotor, a member of
	// the slowly-decaying half-order series riding above the rolled-off
	// true 2× at position 4 (measured ≥ 1.10 from looseness severity
	// 0.6 and past-wear-out subharmonics). The odd positions must also
	// be genuine lines, so band noise cannot flip the octave.
	if 12*bestF <= fs2 {
		var s [3]float64
		for i, k := range [3]float64{1, 3, 5} {
			s[i] = ix.bandStat(psd, k*bestF, binHz, DefaultFreqTolFrac)
		}
		e4 := bandEnergy(psd, 4*bestF, binHz, DefaultFreqTolFrac)
		e5 := bandEnergy(psd, 5*bestF, binHz, DefaultFreqTolFrac)
		if median3(s) >= DefaultLoosenessSNR && e5 > halfCombRise*e4 {
			bestF *= 2
		}
	}

	// Sub-bin refinement from the sharpest line of the winning comb.
	refH, refSNR := 0, 0.0
	for h := 1; h <= 6; h++ {
		if sn := ix.bandStat(psd, float64(h)*bestF, binHz, DefaultFreqTolFrac); sn > refSNR {
			refSNR = sn
			refH = h
		}
	}
	if refH > 0 {
		fh := float64(refH) * bestF
		hw := bandHalfWidth(fh, binHz, DefaultFreqTolFrac)
		lo := int(math.Ceil((fh - hw) / binHz))
		hi := int(math.Floor((fh + hw) / binHz))
		if lo < 0 {
			lo = 0
		}
		if hi > len(psd)-1 {
			hi = len(psd) - 1
		}
		peak := -1
		for i := lo; i <= hi; i++ {
			if peak < 0 || psd[i] > psd[peak] {
				peak = i
			}
		}
		if peak > 0 {
			if f := refinePeakHz(freq, psd, peak) / float64(refH); f >= DefaultMinRotorHz {
				bestF = f
			}
		}
	}
	return bestF
}

// refinePeakHz interpolates the true line frequency from the peak bin
// and its neighbours (parabolic fit on the log PSD — exact for a
// Gaussian line shape, a good approximation for leakage lobes).
func refinePeakHz(freq, psd []float64, i int) float64 {
	if i <= 0 || i >= len(psd)-1 {
		return freq[i]
	}
	a, b, c := psd[i-1], psd[i], psd[i+1]
	if a <= 0 || b <= 0 || c <= 0 {
		return freq[i]
	}
	la, lb, lc := math.Log(a), math.Log(b), math.Log(c)
	den := la - 2*lb + lc
	if den >= 0 {
		return freq[i]
	}
	delta := 0.5 * (la - lc) / den
	if delta < -0.5 {
		delta = -0.5
	} else if delta > 0.5 {
		delta = 0.5
	}
	return freq[i] + delta*(freq[1]-freq[0])
}

// FaultDetector binds a fleet-default machine spec and per-pump
// overrides into an immutable value — the thresholds are constants, so
// the specs are a detector's whole identity. Detect never mutates the
// receiver, so a single detector pointer can be shared across the
// engine and every stream goroutine, and the pointer is the tag the
// stream's memo keeps beside each record's report: a report tagged
// with another detector is stale. WithSpec returns a modified copy,
// copy-on-write.
type FaultDetector struct {
	def   MachineSpec
	specs map[int]MachineSpec
}

// NewFaultDetector builds a detector with a fleet-default machine spec.
func NewFaultDetector(def MachineSpec) *FaultDetector {
	return &FaultDetector{def: def}
}

// WithSpec returns a copy of the detector with a per-pump machine spec
// override. The receiver is unchanged.
func (d *FaultDetector) WithSpec(pumpID int, spec MachineSpec) *FaultDetector {
	nd := &FaultDetector{def: d.def, specs: make(map[int]MachineSpec, len(d.specs)+1)}
	for id, s := range d.specs {
		nd.specs[id] = s
	}
	nd.specs[pumpID] = spec
	return nd
}

// SpecFor returns the machine spec used for a pump.
func (d *FaultDetector) SpecFor(pumpID int) MachineSpec {
	if s, ok := d.specs[pumpID]; ok {
		return s
	}
	return d.def
}

// metDetectDur times one classification through a detector — the
// "fault classify" stage of ingest, of the warm-up (one per pump) and
// of a fault query the memo could not answer.
var metDetectDur = obs.Default.Histogram("vibepm_feature_detect_seconds", obs.StageBuckets)

// Detect classifies one measurement using the pump's machine spec.
func (d *FaultDetector) Detect(rec *store.Record) FaultReport {
	start := time.Now()
	rep := DetectRecord(rec, d.SpecFor(rec.PumpID))
	metDetectDur.Observe(time.Since(start).Seconds())
	return rep
}

// String summarizes a report for logs.
func (r FaultReport) String() string {
	if r.Class == physics.FaultBearing {
		return fmt.Sprintf("%s/%s (%.2f)", r.Class, r.Defect, r.Confidence)
	}
	return fmt.Sprintf("%s (%.2f)", r.Class, r.Confidence)
}

// round6 rounds to 6 significant-ish decimal digits (1e-6 absolute
// grid). Report numbers are quantized so golden fixtures stay readable
// and platform-stable while remaining far finer than any threshold
// margin.
func round6(v float64) float64 {
	if math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	return math.Round(v*1e6) / 1e6
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func median3(v [3]float64) float64 {
	a, b, c := v[0], v[1], v[2]
	if a > b {
		a, b = b, a
	}
	if b > c {
		b = c
	}
	if a > b {
		b = a
	}
	return b
}

func median4(v [4]float64) float64 {
	s := v[:]
	sort.Float64s(s)
	return 0.5 * (s[1] + s[2])
}
