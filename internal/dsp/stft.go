package dsp

import "errors"

// Spectrogram is a time-frequency power map from the short-time Fourier
// transform: Power[t][k] is the one-sided PSD of frame t at frequency
// bin k.
type Spectrogram struct {
	// Times holds the center time (seconds) of each frame.
	Times []float64
	// Freqs holds the frequency (Hz) of each bin.
	Freqs []float64
	// Power holds len(Times) rows of len(Freqs) PSD values (unit²/Hz).
	Power [][]float64
}

// STFTConfig controls the transform. Each frame is tapered with a Hann
// window.
type STFTConfig struct {
	// FrameLength is the per-frame FFT size (default 256).
	FrameLength int
	// HopLength is the frame advance in samples (default
	// FrameLength/2).
	HopLength int
}

func (cfg STFTConfig) params(n int) (frame, hop int, window []float64) {
	frame = cfg.FrameLength
	if frame <= 0 {
		frame = 256
	}
	if frame > n {
		frame = n
	}
	hop = cfg.HopLength
	if hop <= 0 {
		hop = frame / 2
	}
	if hop < 1 {
		hop = 1
	}
	return frame, hop, hannCached(frame)
}

// STFT computes the spectrogram of x sampled at fs Hz. It underlies
// time-frequency visualization of non-stationary behaviour (e.g. the
// load transients worn pumps exhibit) that a single whole-measurement
// PSD averages away.
func STFT(x []float64, fs float64, cfg STFTConfig) (*Spectrogram, error) {
	sg := &Spectrogram{}
	if err := STFTInto(sg, x, fs, cfg); err != nil {
		return nil, err
	}
	return sg, nil
}

// STFTInto computes the spectrogram into sg, reusing its Times, Freqs,
// and Power storage when the capacities fit (rows are reused
// individually). Frame transforms run on cached plans with pooled
// scratch, so repeated calls with a compatible sg are allocation-free in
// the steady state.
func STFTInto(sg *Spectrogram, x []float64, fs float64, cfg STFTConfig) error {
	if len(x) == 0 {
		return ErrEmptySignal
	}
	if fs <= 0 {
		return errors.New("dsp: sampling rate must be positive")
	}
	frame, hop, window := cfg.params(len(x))
	var wp float64
	for _, w := range window {
		wp += w * w
	}
	half := frame/2 + 1
	nFrames := (len(x)-frame)/hop + 1
	if nFrames <= 0 {
		return ErrShortSignal
	}
	sg.Freqs = resizeFloats(sg.Freqs, half)
	for k := range sg.Freqs {
		sg.Freqs[k] = float64(k) * fs / float64(frame)
	}
	sg.Times = resizeFloats(sg.Times, nFrames)
	if cap(sg.Power) >= nFrames {
		sg.Power = sg.Power[:nFrames]
	} else {
		sg.Power = append(sg.Power[:cap(sg.Power)], make([][]float64, nFrames-cap(sg.Power))...)
	}
	fftBuf := getCBuf(frame)
	for t := 0; t < nFrames; t++ {
		start := t * hop
		chunk := x[start : start+frame]
		for i, v := range chunk {
			fftBuf.s[i] = complex(v*window[i], 0)
		}
		FFT(fftBuf.s)
		row := resizeFloats(sg.Power[t], half)
		for k := range row {
			row[k] = 0
		}
		accumulateOneSidedPSD(row, fftBuf.s[:half], frame, fs*wp)
		sg.Power[t] = row
		sg.Times[t] = (float64(start) + float64(frame)/2) / fs
	}
	putCBuf(fftBuf)
	return nil
}

// resizeFloats reslices s to length n, allocating only when the
// capacity is short.
func resizeFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}
