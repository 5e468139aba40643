package dsp

import (
	"errors"
	"fmt"
	"math"
)

// ErrBadSTFTConfig is returned when an STFT configuration is unusable.
var ErrBadSTFTConfig = errors.New("dsp: invalid STFT configuration")

// STFTConfig describes a short-time Fourier transform.
type STFTConfig struct {
	// WindowSize is the number of samples per analysis frame.
	WindowSize int
	// HopSize is the number of samples the frame advances between columns.
	HopSize int
	// Window generates the analysis window; nil means Hann.
	Window WindowFunc
	// Pad, when true, zero-pads each frame to the next power of two before
	// the transform (finer bin spacing). Without it WindowSize must itself
	// be a power of two.
	Pad bool
}

func (c STFTConfig) validate() error {
	if c.WindowSize <= 0 {
		return fmt.Errorf("%w: window size %d", ErrBadSTFTConfig, c.WindowSize)
	}
	if c.HopSize <= 0 {
		return fmt.Errorf("%w: hop size %d", ErrBadSTFTConfig, c.HopSize)
	}
	if !c.Pad && c.WindowSize&(c.WindowSize-1) != 0 {
		return fmt.Errorf("%w: window size %d is not a power of two (set Pad)", ErrBadSTFTConfig, c.WindowSize)
	}
	return nil
}

// Spectrogram holds the magnitude STFT of a signal.
type Spectrogram struct {
	// Mag[frame][bin] is the magnitude of the given FFT bin.
	Mag [][]float64
	// NFFT is the transform length used per frame.
	NFFT int
	// SampleRate is the sample rate of the analysed signal in Hz.
	SampleRate float64
	// HopSize is the frame advance in samples.
	HopSize int
}

// STFT computes the magnitude spectrogram of x sampled at sampleRate.
func STFT(x []float64, sampleRate float64, cfg STFTConfig) (*Spectrogram, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var win []float64
	if cfg.Window != nil {
		win = cfg.Window(cfg.WindowSize)
	} else {
		win = CachedHann(cfg.WindowSize)
	}
	nfft := cfg.WindowSize
	if cfg.Pad {
		nfft = NextPow2(cfg.WindowSize)
	}
	var frames [][]float64
	plan := PlanFFT(nfft)
	buf := Acquire(nfft)
	defer Release(buf)
	spec := AcquireSpectrum(plan.SpectrumLen())
	defer ReleaseSpectrum(spec)
	for start := 0; start+cfg.WindowSize <= len(x); start += cfg.HopSize {
		// buf[WindowSize:] stays zero: the arena hands buffers out zeroed.
		for i := 0; i < cfg.WindowSize; i++ {
			buf[i] = x[start+i] * win[i]
		}
		spec = plan.ForwardReal(buf, spec)
		frames = append(frames, Magnitudes(spec))
	}
	return &Spectrogram{Mag: frames, NFFT: nfft, SampleRate: sampleRate, HopSize: cfg.HopSize}, nil
}

// Frames returns the number of time frames.
func (s *Spectrogram) Frames() int { return len(s.Mag) }

// Bins returns the number of frequency bins per frame.
func (s *Spectrogram) Bins() int {
	if len(s.Mag) == 0 {
		return 0
	}
	return len(s.Mag[0])
}

// FrameTime returns the start time in seconds of frame i.
func (s *Spectrogram) FrameTime(i int) float64 {
	return float64(i*s.HopSize) / s.SampleRate
}

// Band is a closed frequency interval in Hz.
type Band struct {
	Name string
	Low  float64
	High float64
}

// Contains reports whether f lies within the band.
func (b Band) Contains(f float64) bool { return f >= b.Low && f <= b.High }

// BandEnergy integrates |X|^2 over the band for a single magnitude frame and
// returns the square root (an RMS-like band amplitude). Frames outside the
// band contribute nothing.
func BandEnergy(frame []float64, nfft int, sampleRate float64, b Band) float64 {
	lo := FrequencyBin(b.Low, nfft, sampleRate)
	hi := FrequencyBin(b.High, nfft, sampleRate)
	if hi >= len(frame) {
		hi = len(frame) - 1
	}
	sum := 0.0
	for k := lo; k <= hi; k++ {
		sum += frame[k] * frame[k]
	}
	return math.Sqrt(sum)
}

// BandEnergies computes BandEnergy for each band over each frame,
// returning [frame][band].
func (s *Spectrogram) BandEnergies(bands []Band) [][]float64 {
	out := make([][]float64, len(s.Mag))
	for i, frame := range s.Mag {
		row := make([]float64, len(bands))
		for j, b := range bands {
			row[j] = BandEnergy(frame, s.NFFT, s.SampleRate, b)
		}
		out[i] = row
	}
	return out
}

// PeakBin returns the bin index and magnitude of the strongest component in
// frame i within [lowHz, highHz].
func (s *Spectrogram) PeakBin(i int, lowHz, highHz float64) (bin int, mag float64) {
	frame := s.Mag[i]
	lo := FrequencyBin(lowHz, s.NFFT, s.SampleRate)
	hi := FrequencyBin(highHz, s.NFFT, s.SampleRate)
	if hi >= len(frame) {
		hi = len(frame) - 1
	}
	bin = lo
	for k := lo; k <= hi; k++ {
		if frame[k] > mag {
			mag, bin = frame[k], k
		}
	}
	return bin, mag
}

// MeanSpectrum averages the magnitude across all frames, giving the overall
// frequency distribution of the signal (paper Fig. 2a).
func (s *Spectrogram) MeanSpectrum() []float64 {
	if len(s.Mag) == 0 {
		return nil
	}
	out := make([]float64, len(s.Mag[0]))
	for _, frame := range s.Mag {
		for k, v := range frame {
			out[k] += v
		}
	}
	inv := 1 / float64(len(s.Mag))
	for k := range out {
		out[k] *= inv
	}
	return out
}
