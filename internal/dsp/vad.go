package dsp

import (
	"fmt"
	"math"
)

// Voice-activity admission gate for the streaming pipeline: a per-frame
// voiced/unvoiced decision combining an RMS level floor, a zero-crossing-
// rate band on high-passed samples, and a spectral voice-band filter on
// each frame's power spectrum (the barge-in listener recipe: RMS catches
// silence, the high-pass + ZCR band rejects low-frequency table-thump
// rumble and impulsive clicks, and the spectral ratio rejects energy that
// lives outside the speech band entirely). Frames that fail the gate are
// counted as gated; the caller skips the expensive segmentation and replay
// stages while no voiced frame has arrived.

// The gate's tuning. A decision frame advances 10 ms of audio and is
// judged over the vadFFTSize-sample window starting at its hop position.
const (
	vadFFTSize = 256
	// vadRMSFloorDB is the level floor in dBFS (full scale = 1.0) below
	// which a frame is unvoiced regardless of shape.
	vadRMSFloorDB = -48
	// The zero-crossing rate of voiced audio, measured on high-passed
	// samples, lies in [vadZCRMin, vadZCRMax]: low-frequency rumble falls
	// below the band, impulsive broadband clicks above it.
	vadZCRMin, vadZCRMax = 0.02, 0.45
	// vadHighPassHz is the cutoff of the first-order IIR high-pass applied
	// before the ZCR measurement.
	vadHighPassHz = 100
	// A voiced frame has at least vadVoiceBandMin of its (non-DC) spectral
	// energy in [vadVoiceLowHz, vadVoiceHighHz].
	vadVoiceLowHz, vadVoiceHighHz = 80, 4000
	vadVoiceBandMin               = 0.35
	// vadHangoverFrames keeps the gate open for this many frames after the
	// last voiced one, so trailing phoneme energy is not chopped.
	vadHangoverFrames = 8
)

// VAD is a streaming voice-activity detector. Feed it chunks; it decides
// one frame per 10 ms hop, each judged over the 256-sample window starting
// at the frame position (decisions therefore trail the fed samples by
// 256 samples less one hop until Finish flushes the tail). A frame's
// spectrum is the batch STFT's: the Hann-windowed samples, zero-padded to
// 256, through RealFFTPlan.PowerInto. Not safe for concurrent use.
type VAD struct {
	sampleRate float64
	hop        int
	plan       *RealFFTPlan
	win        []float64
	frame      []float64
	power      []float64
	scratch    []complex128

	// raw and hp hold the samples [base, total) still needed by pending
	// frames: raw for the RMS window and the spectrum, hp (first-order
	// high-passed) for the ZCR window.
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

// NewVAD builds a streaming voice-activity detector for audio at the given
// sample rate.
func NewVAD(sampleRate float64) (*VAD, error) {
	if !(sampleRate > 0) {
		return nil, fmt.Errorf("vad: sample rate %v must be positive", sampleRate)
	}
	hop := int(sampleRate / 100)
	if hop <= 0 {
		hop = 1
	}
	// RC high-pass: alpha = RC/(RC+dt) with RC = 1/(2*pi*fc). fc is a
	// variable so the product rounds as a float64 product, not as one
	// exact constant expression.
	fc := float64(vadHighPassHz)
	rc := 1 / (2 * math.Pi * fc)
	dt := 1 / sampleRate
	plan := mustPlanRealFFT(vadFFTSize)
	return &VAD{
		sampleRate: sampleRate,
		hop:        hop,
		plan:       plan,
		win:        cachedWindow(WindowHann, vadFFTSize),
		frame:      make([]float64, vadFFTSize),
		power:      make([]float64, plan.NumBins()),
		scratch:    plan.Scratch(),
		hpAlpha:    rc / (rc + dt),
	}, nil
}

// Feed consumes a chunk and returns how many of the newly decided frames
// were voiced and how many were gated: every frame whose window the fed
// samples now cover. Feed after Finish panics.
func (v *VAD) Feed(chunk []float64) (voiced, gated int) {
	if v.finishDone {
		panic("dsp: VAD.Feed after Finish")
	}
	v.ingest(chunk)
	covered := 0
	for (v.decided+covered)*v.hop+vadFFTSize <= v.total {
		covered++
	}
	return v.decideFrames(covered)
}

// Finish flushes the zero-padded tail frames and returns their
// voiced/gated split. The frame count follows the batch STFT's rule: one
// frame for any non-empty signal up to 256 samples, then one per hop of
// the remainder, rounded up. Idempotent.
func (v *VAD) Finish() (voiced, gated int) {
	if v.finishDone {
		return 0, 0
	}
	v.finishDone = true
	if v.total == 0 {
		return 0, 0
	}
	frames := 1
	if v.total > vadFFTSize {
		frames = 1 + (v.total-vadFFTSize+v.hop-1)/v.hop
	}
	return v.decideFrames(frames - v.decided)
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

// decideFrames judges the next n frames.
func (v *VAD) decideFrames(n int) (voiced, gated int) {
	for i := 0; i < n; i++ {
		start := v.decided * v.hop
		end := start + vadFFTSize
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
		if v.decide(v.raw[lo:hi], v.hp[lo:hi]) {
			voiced++
		} else {
			gated++
		}
		v.decided++
		// Drop samples no pending frame needs: everything before the next
		// undecided frame's window start.
		drop := v.decided*v.hop - v.base
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
func (v *VAD) decide(raw, hp []float64) bool {
	live := len(raw) > 0 &&
		rmsOK(raw) && zcrOK(hp) && v.spectralOK(raw)
	if live {
		v.hangover = vadHangoverFrames
		return true
	}
	if v.hangover > 0 {
		v.hangover--
		return true
	}
	return false
}

// rmsOK checks the dBFS level floor.
func rmsOK(raw []float64) bool {
	rms := RMS(raw)
	if rms <= 0 {
		return false
	}
	return 20*math.Log10(rms) >= vadRMSFloorDB
}

// zcrOK checks the zero-crossing rate of the high-passed window against
// the voiced band.
func zcrOK(hp []float64) bool {
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
	return zcr >= vadZCRMin && zcr <= vadZCRMax
}

// spectralOK checks that enough of the frame's (non-DC) spectral energy
// lies inside the speech band.
func (v *VAD) spectralOK(raw []float64) bool {
	for i, x := range raw {
		v.frame[i] = x * v.win[i]
	}
	clear(v.frame[len(raw):])
	power := v.plan.PowerInto(v.power, v.frame, v.scratch)
	var band, total float64
	for f := 1; f < len(power); f++ {
		freq := BinFrequency(f, vadFFTSize, v.sampleRate)
		total += power[f]
		if freq >= vadVoiceLowHz && freq <= vadVoiceHighHz {
			band += power[f]
		}
	}
	if total <= 0 {
		return false
	}
	return band/total >= vadVoiceBandMin
}
