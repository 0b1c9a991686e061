// Package transform is the data transformation layer of the paper's
// Fig. 7 architecture: it converts unitless raw sensor readings into
// physical measurement data — acceleration in g, power spectral density
// in g²/Hz, and the frequency axes needed to interpret spectral
// features.
package transform

import (
	"math"
	"sync"

	"vibepm/internal/dsp"
	"vibepm/internal/obs"
	"vibepm/internal/store"
)

// CountsToG converts raw ADC counts into acceleration in g.
func CountsToG(raw []int16, scaleG float64) []float64 {
	return CountsToGInto(make([]float64, len(raw)), raw, scaleG)
}

// CountsToGInto is CountsToG writing into dst (grown if needed,
// returned resliced to len(raw)).
func CountsToGInto(dst []float64, raw []int16, scaleG float64) []float64 {
	if cap(dst) < len(raw) {
		dst = make([]float64, len(raw))
	}
	dst = dst[:len(raw)]
	for i, v := range raw {
		dst[i] = float64(v) * scaleG
	}
	return dst
}

// Offsets returns the per-axis mean acceleration (the zero offsets of
// Fig. 8) without materializing the demeaned series — the cheap path
// the preprocessing layer's measurement-integrity scan uses.
func Offsets(rec *store.Record) (offsets [3]float64) {
	for axis := 0; axis < 3; axis++ {
		raw := rec.Raw[axis]
		if len(raw) == 0 {
			continue
		}
		var sum float64
		for _, v := range raw {
			// The conversion rounds the product before the add, as a
			// stored acceleration would be (see dsp.RecordPower).
			sum += float64(float64(v) * rec.ScaleG)
		}
		offsets[axis] = sum / float64(len(raw))
	}
	return offsets
}

// PSD computes the paper's combined PSD feature of a record:
// s_mn = Σ_{l∈{x,y,z}} (âˡ·W_K)²/(2K), one value per DCT bin, plus the
// matching frequency axis. This is the s_mn feature vector of §III-B.
func PSD(rec *store.Record) (freq, psd []float64) {
	k := rec.Samples()
	freq, psd, _ = PSDInto(make([]float64, k), make([]float64, k), rec)
	return freq, psd
}

// Moments are what a spectrum pass reads from the counts beside the
// spectrum: the per-axis zero offsets and the combined RMS, bit for bit
// Offsets(rec) and RMS(rec).
type Moments struct {
	Offsets [3]float64
	RMS     float64
}

// metPSDs counts record spectra. Every one — the live fold, a metric
// score, baseline training, a PSD view — is one PSDInto call, so the
// counter is how many times a process transformed a record.
var metPSDs = obs.Default.Counter("vibepm_transform_psd_total")

// PSDInto is PSD writing into caller-owned freq and psd slices (grown
// if their capacity is short, returned resliced to rec.Samples()), plus
// the record's Moments from the same reads: one dsp.RecordPower call
// over the three axes, whose demean and power passes each run once for
// x, y and z together (AVX2 kernels where the CPU has them). The DCTs
// run on a cached plan over pooled scratch, so steady-state calls with
// adequate slices are allocation-free.
func PSDInto(freq, psd []float64, rec *store.Record) ([]float64, []float64, Moments) {
	metPSDs.Inc()
	k := rec.Samples()
	freq = dsp.DCTAxisInto(freq, rec.SampleRateHz, k)
	// A malformed record can carry an axis longer than the combined
	// grid: its spectrum is summed in full and the bins past the grid
	// are cut off. Well-formed records are unaffected.
	n := max(len(rec.Raw[0]), len(rec.Raw[1]), len(rec.Raw[2]))
	if cap(psd) < n {
		psd = make([]float64, n)
	}
	psd = psd[:n]
	mean, sumSq := dsp.RecordPower(psd, &rec.Raw, rec.ScaleG)
	var m Moments
	var sum float64
	for axis, raw := range rec.Raw {
		if len(raw) == 0 {
			continue
		}
		m.Offsets[axis] = mean[axis]
		sum += sumSq[axis] / float64(len(raw))
	}
	m.RMS = math.Sqrt(sum)
	return freq, psd[:k], m
}

// psdScratch holds the (freq, psd) arrays UsePSD lends out.
type psdScratch struct{ freq, psd []float64 }

var psdPool = sync.Pool{New: func() any { return new(psdScratch) }}

// UsePSD computes rec's PSD into pooled arrays and hands them to use,
// which must not keep them: the allocation-free PSD for callers that
// derive scalars and peak lists from the spectrum and keep only those.
// It returns the Moments the same pass read.
func UsePSD(rec *store.Record, use func(freq, psd []float64)) Moments {
	sc := psdPool.Get().(*psdScratch)
	var m Moments
	sc.freq, sc.psd, m = PSDInto(sc.freq, sc.psd, rec)
	use(sc.freq, sc.psd)
	psdPool.Put(sc)
	return m
}

// RMS computes the paper's combined RMS feature of a record:
// r_mn = sqrt(Σ_l (rˡ_mn)²) with rˡ = ‖âˡ‖/√K, i.e. the root of the
// summed per-axis vibration variances. It runs directly over the raw
// counts in two passes and never allocates.
func RMS(rec *store.Record) float64 {
	var sum float64
	for axis := 0; axis < 3; axis++ {
		raw := rec.Raw[axis]
		if len(raw) == 0 {
			continue
		}
		// Each conversion rounds a product before the add that follows
		// it, so the sums are the ones dsp.RecordPower makes on every
		// target.
		var mean float64
		for _, v := range raw {
			mean += float64(float64(v) * rec.ScaleG)
		}
		mean /= float64(len(raw))
		var sq float64
		for _, v := range raw {
			d := float64(float64(v)*rec.ScaleG) - mean
			sq += float64(d * d)
		}
		sum += sq / float64(len(raw))
	}
	return math.Sqrt(sum)
}

// AmplitudeSpectrum converts the PSD feature into an amplitude spectrum
// in g/√Hz for visualization (the unit of the paper's Fig. 9/10 plots).
func AmplitudeSpectrum(psd []float64) []float64 {
	out := make([]float64, len(psd))
	for i, v := range psd {
		if v > 0 {
			out[i] = math.Sqrt(v)
		}
	}
	return out
}

// gToMMS2 converts acceleration from g to mm/s².
const gToMMS2 = 9806.65

// VelocityPSD converts an acceleration PSD (g²/Hz on the freq axis)
// into a velocity PSD ((mm/s)²/Hz) by dividing each bin by (2πf)² —
// integration in the frequency domain. The DC bin has no velocity
// meaning and is zeroed. Velocity is the quantity ISO 10816 severity
// zones (the physical counterpart of the paper's Zone A–D labels) are
// defined on.
func VelocityPSD(freq, accelPSD []float64) []float64 {
	out := make([]float64, len(accelPSD))
	for i := range accelPSD {
		if i >= len(freq) || freq[i] <= 0 {
			continue
		}
		w := 2 * math.Pi * freq[i]
		out[i] = accelPSD[i] * gToMMS2 * gToMMS2 / (w * w)
	}
	return out
}

// ISOBandLoHz and ISOBandHiHz bound the ISO 10816 velocity-severity
// band. The REST trend endpoint, the live fold and the cold tier's
// persisted vrms series must all integrate over the same band or
// cold ≡ hot breaks, so all three read it from here.
const (
	ISOBandLoHz = 10.0
	ISOBandHiHz = 1000.0
)

// VelocityRMS returns the broadband vibration velocity of a record in
// mm/s RMS, integrated over the band [loHz, hiHz] (pass 0, 0 for the
// ISO band).
func VelocityRMS(rec *store.Record, loHz, hiHz float64) (v float64) {
	UsePSD(rec, func(freq, psd []float64) { v = VelocityRMSFromPSD(freq, psd, loHz, hiHz) })
	return v
}

// VelocityRMSFromPSD is VelocityRMS over an already-computed
// acceleration PSD — the entry point for callers (such as the
// incremental analysis path) that extract the PSD once per record and
// derive every spectral feature from it. It integrates in place:
// VelocityPSD's per-bin value, summed in bin order over the band, with
// no velocity spectrum materialised.
func VelocityRMSFromPSD(freq, psd []float64, loHz, hiHz float64) float64 {
	if loHz <= 0 {
		loHz = ISOBandLoHz
	}
	if hiHz <= 0 {
		hiHz = ISOBandHiHz
	}
	var sum float64
	for i := range psd {
		// loHz > 0, so a bin in the band is never the DC bin VelocityPSD
		// zeroes.
		if f := freq[i]; f >= loHz && f <= hiHz {
			w := 2 * math.Pi * f
			sum += psd[i] * gToMMS2 * gToMMS2 / (w * w)
		}
	}
	// The DCT PSD feature is per-bin power (already summed per bin), so
	// the band power is the plain sum; the paper's 1/(2K) scaling makes
	// total power rms²/2, undo the factor of 2.
	return math.Sqrt(2 * sum)
}
