package dsp

import "math"

// EnvelopeInto writes the amplitude envelope of x — the magnitude of
// the analytic signal, computed with an FFT-based Hilbert transform —
// into dst (grown if needed, returned resliced to len(x)). In
// rotating-machinery diagnostics the envelope demodulates the
// high-frequency carrier excited by impacting bearing defects so that
// the defect repetition rate becomes visible at low frequency; it backs
// the envelope-spectrum extension feature. The analytic-signal
// transform runs on cached plans with pooled scratch — its forward half
// on the real-input FFT for an even length, its inverse on the complex
// one, since the analytic signal is complex — so steady-state calls
// with an adequate dst are allocation-free.
func EnvelopeInto(dst, x []float64) []float64 {
	n := len(x)
	if cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	if n == 1 {
		dst[0] = math.Abs(x[0])
		return dst
	}
	cb := getCBuf(n)
	buf := cb.s
	if n%2 == 0 {
		realFFT(buf, x, nil, 0)
	} else {
		for i, v := range x {
			buf[i] = complex(v, 0)
		}
		FFT(buf)
	}
	// Analytic signal: zero the negative frequencies, double the
	// positive ones, keep DC (and Nyquist for even n) unscaled.
	half := n / 2
	for k := 1; k < half; k++ {
		buf[k] = cmul(buf[k], 2)
	}
	if n%2 == 1 {
		buf[half] = cmul(buf[half], 2)
	}
	for k := half + 1; k < n; k++ {
		buf[k] = 0
	}
	IFFT(buf)
	for i := range dst {
		re, im := real(buf[i]), imag(buf[i])
		dst[i] = math.Sqrt(float64(re*re) + float64(im*im))
	}
	putCBuf(cb)
	return dst
}

// EnvelopeSpectrumInto writes the one-sided periodogram of the
// demeaned amplitude envelope of x into freq and psd, with
// PeriodogramInto's contract — the standard bearing-defect spectrum,
// where the defect passing frequencies appear directly regardless of
// which high-frequency resonance carries them.
func EnvelopeSpectrumInto(freq, psd, x []float64, fs float64) ([]float64, []float64, error) {
	eb := getFBuf(len(x))
	env := EnvelopeInto(eb.s, x)
	freq, psd, err := PeriodogramInto(freq, psd, env, fs)
	putFBuf(eb)
	return freq, psd, err
}
