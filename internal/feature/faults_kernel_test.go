package feature

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"vibepm/internal/dsp"
	"vibepm/internal/physics"
	"vibepm/internal/store"
)

// TestUpperMedianMatchesSort is the selection median's contract: for
// every length and every mix of ties, infinities and NaNs it returns
// the element a full sort.Float64s leaves at v[len(v)/2] (NaNs order
// first there).
func TestUpperMedianMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	// Each generator draws one element of a length-n input.
	gens := map[string]func(n int) float64{
		"continuous": func(int) float64 { return rng.ExpFloat64() },
		"ties":       func(n int) float64 { return float64(rng.Intn(1 + n/4)) },
		"all-equal":  func(int) float64 { return 7 },
		"specials": func(n int) float64 {
			switch rng.Intn(8) {
			case 0:
				return math.NaN()
			case 1:
				return math.Inf(1)
			case 2:
				return math.Inf(-1)
			}
			return float64(rng.Intn(1 + n/2))
		},
	}
	for n := 1; n <= 300; n++ {
		for name, gen := range gens {
			for trial := 0; trial < 8; trial++ {
				v := make([]float64, n)
				for i := range v {
					v[i] = gen(n)
				}
				if trial == 7 {
					sort.Float64s(v) // ascending input
				}
				want := append([]float64(nil), v...)
				sort.Float64s(want)
				if got := upperMedian(v); !same(got, want[n/2]) {
					t.Fatalf("%s n=%d trial=%d: upperMedian = %v, sorted[n/2] = %v", name, n, trial, got, want[n/2])
				}
			}
		}
	}
}

// same is equality of selected elements: any two NaNs match, and so do
// -0 and +0, which sort.Float64s treats as equal.
func same(a, b float64) bool { return a == b || (a != a && b != b) }

// goldenCorpus is the labelled corpus of the golden harness — healthy
// controls across the wear range plus every fault kind × severity ×
// seed — at k samples per axis.
func goldenCorpus(tb testing.TB, k int) (recs []*store.Record, specs []MachineSpec) {
	tb.Helper()
	// Seeds and service day as faults_golden_test.go at the repository
	// root derives them.
	add := func(seed int64, wear float64, cfg physics.FaultConfig) {
		rec, spec := capture(tb, int(seed), seed, seed*7+1, wear*600, cfg, k)
		recs, specs = append(recs, rec), append(specs, spec)
	}
	for _, seed := range []int64{11, 12, 13} {
		for _, wear := range []float64{0.05, 0.30, 0.50} {
			add(seed, wear, physics.FaultConfig{})
		}
	}
	for _, cfg := range []physics.FaultConfig{
		{Class: physics.FaultBearing, Defect: physics.DefectOuterRace},
		{Class: physics.FaultBearing, Defect: physics.DefectInnerRace},
		{Class: physics.FaultBearing, Defect: physics.DefectBall},
		{Class: physics.FaultImbalance},
		{Class: physics.FaultMisalignment, Misalign: physics.MisalignAngular},
		{Class: physics.FaultMisalignment, Misalign: physics.MisalignParallel},
		{Class: physics.FaultLooseness},
	} {
		for _, sev := range []float64{0.25, 0.5, 1.0} {
			for _, seed := range []int64{11, 12} {
				cfg.Severity = sev
				add(seed, 0.15, cfg)
			}
		}
	}
	return recs, specs
}

// TestDetectRecordMatchesSortReference holds the selection-median,
// pooled-scratch classifier to the implementation it replaced, kept
// below as refDetectRecord: reports must be reflect.DeepEqual over the
// golden corpus with the rotor given and estimated, at the paper's
// 1024 samples and at an even non-power-of-two and an odd length (the
// Bluestein transform and the unpaired last bin).
func TestDetectRecordMatchesSortReference(t *testing.T) {
	for _, k := range []int{1024, 1000, 1023} {
		recs, given := goldenCorpus(t, k)
		for i, rec := range recs {
			for _, spec := range []MachineSpec{given[i], {}} {
				got := DetectRecord(rec, spec)
				want := refDetectRecord(rec, spec)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("k=%d record %d spec %+v:\ngot  %+v\nwant %+v", k, i, spec, got, want)
				}
			}
		}
	}
}

// TestFaultDetectorSharedScratch classifies from eight goroutines
// through one shared detector and demands the sequential reports: a
// pooled scratch handed to two classifications at once would corrupt a
// spectrum (and trip the race detector; see make race-faults).
func TestFaultDetectorSharedScratch(t *testing.T) {
	recs, _ := goldenCorpus(t, 1024)
	det := NewFaultDetector(MachineSpec{})
	want := make([]FaultReport, len(recs))
	for i, rec := range recs {
		want[i] = det.Detect(rec)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				for j := range recs {
					i := (j + g*7) % len(recs)
					if got := det.Detect(recs[i]); !reflect.DeepEqual(got, want[i]) {
						t.Errorf("goroutine %d record %d: concurrent report diverged:\ngot  %+v\nwant %+v", g, i, got, want[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// The classifier as it stood before the selection median and the
// pooled scratch, verbatim but for the ref prefix and the thresholds
// read as the package constants: every floor median is a fresh slice
// fully sorted, every spectrum a fresh allocation from the non-Into
// transforms. It is the reference TestDetectRecordMatchesSortReference
// compares against and has no other caller.

func refDetectRecord(rec *store.Record, spec MachineSpec) FaultReport {
	k := rec.Samples()
	if k < DefaultMinFaultSamples || rec.SampleRateHz <= 0 {
		return FaultReport{Class: physics.FaultNone, Evidence: []Evidence{
			{Name: "insufficient-data", Value: float64(k)},
		}}
	}
	fs := rec.SampleRateHz
	x := rec.AxisG(0)
	y := rec.AxisG(1)
	z := rec.AxisG(2)

	freq, px, err := dsp.PeriodogramInto(nil, nil, x, fs)
	if err != nil {
		return FaultReport{Class: physics.FaultNone}
	}
	_, py, _ := dsp.PeriodogramInto(nil, nil, y, fs)
	_, pz, _ := dsp.PeriodogramInto(nil, nil, z, fs)

	// Radial spectrum: the two radial axes carry the same recipe, so
	// summing their periodograms halves the estimator variance.
	rp := make([]float64, len(px))
	for i := range rp {
		rp[i] = px[i] + py[i]
	}
	binHz := fs / float64(k)

	rotor := spec.RotorHz
	estimated := false
	if rotor <= 0 {
		rotor = refEstimateRotorHz(freq, rp)
		estimated = true
	}
	if rotor <= 0 || rotor < DefaultMinRotorHz || 6*rotor >= fs/2 {
		return FaultReport{Class: physics.FaultNone, Evidence: []Evidence{
			{Name: "rotor-unresolved", Freq: rotor},
		}}
	}

	band := func(psd []float64, f0 float64) float64 {
		e, _ := refBandStat(psd, f0, binHz, DefaultFreqTolFrac)
		return e
	}
	snr := func(psd []float64, f0 float64) float64 {
		_, s := refBandStat(psd, f0, binHz, DefaultFreqTolFrac)
		return s
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
	if _, pe, err := dsp.EnvelopeSpectrumInto(nil, nil, x, fs); err == nil {
		if _, pe2, err2 := dsp.EnvelopeSpectrumInto(nil, nil, y, fs); err2 == nil {
			for i := range pe {
				pe[i] += pe2[i]
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
	for i, defect := range bearingCandidates {
		ev = append(ev, Evidence{
			Name:  "env-" + defect.String(),
			Freq:  round6(envFreqOf[i]),
			Value: round6(envSNR[i]),
		})
	}
	report.Evidence = ev
	return report
}

func refBandStat(psd []float64, f0, binHz, tolFrac float64) (energy, snr float64) {
	if binHz <= 0 || f0 <= 0 {
		return 0, 0
	}
	hw := bandHalfWidth(f0, binHz, tolFrac)
	lo := int(math.Ceil((f0 - hw) / binHz))
	hi := int(math.Floor((f0 + hw) / binHz))
	if lo < 0 {
		lo = 0
	}
	if hi > len(psd)-1 {
		hi = len(psd) - 1
	}
	if hi < lo {
		return 0, 0
	}
	for i := lo; i <= hi; i++ {
		energy += psd[i]
	}
	flo := int(math.Ceil((f0 - 8*hw) / binHz))
	fhi := int(math.Floor((f0 + 8*hw) / binHz))
	if flo < 0 {
		flo = 0
	}
	if fhi > len(psd)-1 {
		fhi = len(psd) - 1
	}
	floorBins := make([]float64, 0, fhi-flo+1)
	for i := flo; i <= fhi; i++ {
		if i >= lo && i <= hi {
			continue
		}
		floorBins = append(floorBins, psd[i])
	}
	if len(floorBins) == 0 {
		return energy, 0
	}
	sort.Float64s(floorBins)
	floor := floorBins[len(floorBins)/2]
	denom := floor * float64(hi-lo+1)
	if denom <= 0 {
		if energy <= 0 {
			return energy, 0
		}
		return energy, math.Inf(1)
	}
	return energy, energy / denom
}

func refEstimateRotorHz(freq, psd []float64) float64 {
	if len(freq) < 4 {
		return 0
	}
	binHz := freq[1] - freq[0]
	if binHz <= 0 {
		return 0
	}
	fs2 := freq[len(freq)-1]
	hiHz := fs2 / 4 // fs/8

	combScore := func(f0 float64) float64 {
		if f0 < DefaultMinRotorHz || 6*f0 > fs2 {
			return math.Inf(-1)
		}
		var s float64
		for h := 1; h <= 6; h++ {
			_, sn := refBandStat(psd, float64(h)*f0, binHz, DefaultFreqTolFrac)
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
			_, s[i] = refBandStat(psd, k*bestF, binHz, DefaultFreqTolFrac)
		}
		e4, _ := refBandStat(psd, 4*bestF, binHz, DefaultFreqTolFrac)
		e5, _ := refBandStat(psd, 5*bestF, binHz, DefaultFreqTolFrac)
		if median3(s) >= DefaultLoosenessSNR && e5 > halfCombRise*e4 {
			bestF *= 2
		}
	}

	// Sub-bin refinement from the sharpest line of the winning comb.
	refH, refSNR := 0, 0.0
	for h := 1; h <= 6; h++ {
		if _, sn := refBandStat(psd, float64(h)*bestF, binHz, DefaultFreqTolFrac); sn > refSNR {
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
