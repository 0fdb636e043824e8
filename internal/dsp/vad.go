package dsp

import (
	"fmt"
	"math"
)

// Voice-activity admission gate for the streaming pipeline: a per-frame
// voiced/unvoiced decision combining an RMS level floor, a zero-crossing-
// rate band on high-passed samples, and a spectral voice-band filter on
// streamed STFT frames (the barge-in listener recipe: RMS catches silence,
// the high-pass + ZCR band rejects low-frequency table-thump rumble and
// impulsive clicks, and the spectral ratio rejects energy that lives
// outside the speech band entirely). Frames that fail the gate are counted
// as gated; the caller skips the expensive segmentation and replay stages
// while no voiced frame has arrived.

// VADConfig parameterizes a VAD.
type VADConfig struct {
	// SampleRate of the audio in Hz. Required.
	SampleRate float64
	// FrameSamples is the decision-frame hop (default 10 ms of audio).
	FrameSamples int
	// FFTSize is the spectral-gate analysis window (default 256). Each
	// decision frame is judged over the FFTSize-sample window starting at
	// its hop position.
	FFTSize int
	// RMSFloorDB is the level floor in dBFS (full scale = 1.0) below which
	// a frame is unvoiced regardless of shape (default -48).
	RMSFloorDB float64
	// ZCRMin and ZCRMax bound the zero-crossing rate of voiced audio,
	// measured on high-passed samples: low-frequency rumble falls below
	// the band, impulsive broadband clicks above it (defaults 0.02, 0.45).
	ZCRMin, ZCRMax float64
	// HighPassHz is the first-order IIR high-pass cutoff applied before
	// the ZCR measurement (default 100 Hz).
	HighPassHz float64
	// VoiceLowHz and VoiceHighHz bound the speech band of the spectral
	// gate (defaults 80 Hz, 4 kHz).
	VoiceLowHz, VoiceHighHz float64
	// VoiceBandMin is the minimum fraction of (non-DC) spectral energy
	// inside the speech band for a voiced frame (default 0.35).
	VoiceBandMin float64
	// HangoverFrames keeps the gate open for this many frames after the
	// last voiced one, so trailing phoneme energy is not chopped
	// (default 8).
	HangoverFrames int
}

// DefaultVADConfig returns the gate tuning used by the streaming pipeline.
func DefaultVADConfig(sampleRate float64) VADConfig {
	return VADConfig{SampleRate: sampleRate}
}

func (c VADConfig) withDefaults() (VADConfig, error) {
	if c.SampleRate <= 0 {
		return c, fmt.Errorf("vad: sample rate %v must be positive", c.SampleRate)
	}
	if c.FrameSamples <= 0 {
		c.FrameSamples = int(c.SampleRate / 100)
		if c.FrameSamples <= 0 {
			c.FrameSamples = 1
		}
	}
	if c.FFTSize <= 0 {
		c.FFTSize = 256
	}
	if err := ValidateLength(c.FFTSize); err != nil {
		return c, fmt.Errorf("vad: %w", err)
	}
	if c.RMSFloorDB == 0 {
		c.RMSFloorDB = -48
	}
	if c.ZCRMin == 0 {
		c.ZCRMin = 0.02
	}
	if c.ZCRMax == 0 {
		c.ZCRMax = 0.45
	}
	if c.HighPassHz == 0 {
		c.HighPassHz = 100
	}
	if c.HighPassHz < 0 || c.HighPassHz >= c.SampleRate/2 {
		return c, fmt.Errorf("vad: high-pass %vHz outside [0, %vHz)", c.HighPassHz, c.SampleRate/2)
	}
	if c.VoiceLowHz == 0 {
		c.VoiceLowHz = 80
	}
	if c.VoiceHighHz == 0 {
		c.VoiceHighHz = 4000
	}
	if c.VoiceBandMin == 0 {
		c.VoiceBandMin = 0.35
	}
	if c.HangoverFrames == 0 {
		c.HangoverFrames = 8
	}
	return c, nil
}

// VAD is a streaming voice-activity detector. Feed it chunks; it decides
// one frame per FrameSamples hop, each judged over the FFTSize window
// starting at the frame position (decisions therefore trail the fed
// samples by FFTSize-FrameSamples samples until Finish flushes the tail).
// Not safe for concurrent use.
type VAD struct {
	cfg  VADConfig
	stft *STFTStreamer

	// raw and hp hold the samples [base, total) still needed by pending
	// frames: raw for the RMS window, hp (first-order high-passed) for the
	// ZCR window.
	raw, hp []float64
	base    int
	total   int

	// one-pole high-pass state.
	hpAlpha    float64
	hpPrevIn   float64
	hpPrevOut  float64
	hpPrimed   bool
	decided    int
	hangover   int
	finishDone bool
}

// NewVAD builds a streaming voice-activity detector.
func NewVAD(cfg VADConfig) (*VAD, error) {
	c, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	stft, err := NewSTFTStreamer(STFTConfig{
		FFTSize:    c.FFTSize,
		HopSize:    c.FrameSamples,
		SampleRate: c.SampleRate,
	})
	if err != nil {
		return nil, fmt.Errorf("vad: %w", err)
	}
	// RC high-pass: alpha = RC/(RC+dt) with RC = 1/(2*pi*fc).
	alpha := 1.0
	if c.HighPassHz > 0 {
		rc := 1 / (2 * math.Pi * c.HighPassHz)
		dt := 1 / c.SampleRate
		alpha = rc / (rc + dt)
	}
	return &VAD{cfg: c, stft: stft, hpAlpha: alpha}, nil
}

// Config returns the resolved configuration.
func (v *VAD) Config() VADConfig { return v.cfg }

// FramesDecided returns the number of frames decided so far.
func (v *VAD) FramesDecided() int { return v.decided }

// Feed consumes a chunk and returns how many of the newly decided frames
// were voiced and how many were gated. Feed after Finish panics.
func (v *VAD) Feed(chunk []float64) (voiced, gated int) {
	if v.finishDone {
		panic("dsp: VAD.Feed after Finish")
	}
	v.ingest(chunk)
	newFrames := v.stft.Feed(chunk)
	return v.decideFrames(newFrames)
}

// Finish flushes the zero-padded tail frames (every started hop gets its
// decision) and returns their voiced/gated split. Idempotent.
func (v *VAD) Finish() (voiced, gated int) {
	if v.finishDone {
		return 0, 0
	}
	v.finishDone = true
	before := v.stft.NumFrames()
	v.stft.Finish()
	return v.decideFrames(v.stft.NumFrames() - before)
}

// ingest appends raw samples and their high-passed counterparts.
func (v *VAD) ingest(chunk []float64) {
	for _, x := range chunk {
		if !v.hpPrimed {
			v.hpPrimed = true
			v.hpPrevIn, v.hpPrevOut = x, 0
		} else {
			v.hpPrevOut = v.hpAlpha * (v.hpPrevOut + x - v.hpPrevIn)
			v.hpPrevIn = x
		}
		v.raw = append(v.raw, x)
		v.hp = append(v.hp, v.hpPrevOut)
	}
	v.total += len(chunk)
}

// decideFrames judges the next n emitted STFT frames.
func (v *VAD) decideFrames(n int) (voiced, gated int) {
	rows := v.stft.Frames()
	for i := 0; i < n; i++ {
		t := v.decided
		start := t * v.cfg.FrameSamples
		end := start + v.cfg.FFTSize
		if end > v.total {
			end = v.total
		}
		lo, hi := start-v.base, end-v.base
		if lo < 0 {
			lo = 0
		}
		if hi < lo {
			hi = lo
		}
		if v.decide(v.raw[lo:hi], v.hp[lo:hi], rows[t]) {
			voiced++
		} else {
			gated++
		}
		v.decided++
		// Drop samples no pending frame needs: everything before the next
		// undecided frame's window start.
		drop := v.decided*v.cfg.FrameSamples - v.base
		if drop > len(v.raw) {
			drop = len(v.raw)
		}
		if drop > 0 {
			kept := copy(v.raw, v.raw[drop:])
			v.raw = v.raw[:kept]
			kept = copy(v.hp, v.hp[drop:])
			v.hp = v.hp[:kept]
			v.base += drop
		}
	}
	return voiced, gated
}

// decide applies the three gates plus hangover to one frame.
func (v *VAD) decide(raw, hp []float64, power []float64) bool {
	live := len(raw) > 0 &&
		v.rmsOK(raw) && v.zcrOK(hp) && v.spectralOK(power)
	if live {
		v.hangover = v.cfg.HangoverFrames
		return true
	}
	if v.hangover > 0 {
		v.hangover--
		return true
	}
	return false
}

// rmsOK checks the dBFS level floor.
func (v *VAD) rmsOK(raw []float64) bool {
	rms := RMS(raw)
	if rms <= 0 {
		return false
	}
	return 20*math.Log10(rms) >= v.cfg.RMSFloorDB
}

// zcrOK checks the zero-crossing rate of the high-passed window against
// the voiced band.
func (v *VAD) zcrOK(hp []float64) bool {
	if len(hp) < 2 {
		return false
	}
	crossings := 0
	for i := 1; i < len(hp); i++ {
		if (hp[i-1] >= 0) != (hp[i] >= 0) {
			crossings++
		}
	}
	zcr := float64(crossings) / float64(len(hp)-1)
	return zcr >= v.cfg.ZCRMin && zcr <= v.cfg.ZCRMax
}

// spectralOK checks that enough of the frame's (non-DC) spectral energy
// lies inside the speech band.
func (v *VAD) spectralOK(power []float64) bool {
	var band, total float64
	for f := 1; f < len(power); f++ {
		freq := BinFrequency(f, v.cfg.FFTSize, v.cfg.SampleRate)
		total += power[f]
		if freq >= v.cfg.VoiceLowHz && freq <= v.cfg.VoiceHighHz {
			band += power[f]
		}
	}
	if total <= 0 {
		return false
	}
	return band/total >= v.cfg.VoiceBandMin
}
