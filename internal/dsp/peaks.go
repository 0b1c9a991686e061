package dsp

import "slices"

// Peak is a local maximum of a (smoothed) spectrum: its bin index, the
// frequency of that bin, and the spectrum value there.
type Peak struct {
	Index int
	Freq  float64
	Value float64
}

// FindPeaksInto locates local maxima of y: points where the first-order
// difference changes from positive to negative, exactly the paper's
// step 2 of the harmonic-peak search. Plateaus report their first bin.
// freq may be nil, in which case Peak.Freq is the bin index. It appends
// to dst[:0]: the result shares dst's array while it fits, so a caller
// that keeps a pooled dst finds peaks without growing a list per
// spectrum.
func FindPeaksInto(dst []Peak, freq, y []float64) []Peak {
	n := len(y)
	if freq != nil {
		checkLen("FindPeaksInto", len(freq), n)
	}
	peaks := dst[:0]
	if n < 3 {
		return peaks
	}
	i := 1
	for i < n-1 {
		if y[i] > y[i-1] {
			// Walk across any plateau.
			j := i
			for j < n-1 && y[j+1] == y[j] {
				j++
			}
			if j < n-1 && y[j+1] < y[j] {
				f := float64(i)
				if freq != nil {
					f = freq[i]
				}
				peaks = append(peaks, Peak{Index: i, Freq: f, Value: y[i]})
				i = j + 1
				continue
			}
			i = j + 1
			continue
		}
		i++
	}
	return peaks
}

// TopPeaksInto returns the np largest peaks (by value) of the smoothed
// signal, re-sorted in ascending frequency order as Algorithm 1
// requires. It smooths y with a Hann window of size nh before the
// derivative test (smoothHannInto: nh <= 3 smooths nothing). This is
// the full harmonic-peak extraction procedure of §IV-B with the paper's
// defaults np = 20, nh = 24. dst is FindPeaksInto's: the peaks are
// found, ranked and cut in its array.
func TopPeaksInto(dst []Peak, freq, y []float64, np, nh int) []Peak {
	buf := getFBuf(len(y))
	peaks := FindPeaksInto(dst, freq, smoothHannInto(buf.s, y, nh))
	putFBuf(buf)
	if np > 0 && len(peaks) > np {
		slices.SortStableFunc(peaks, func(a, b Peak) int {
			switch {
			case a.Value > b.Value:
				return -1
			case a.Value < b.Value:
				return 1
			default:
				return 0
			}
		})
		peaks = peaks[:np]
	}
	slices.SortFunc(peaks, func(a, b Peak) int { return a.Index - b.Index })
	return peaks
}
