// Package vibguard is a reproduction of "Defending against Thru-barrier
// Stealthy Voice Attacks via Cross-Domain Sensing on Phoneme Sounds"
// (Shi et al., ICDCS 2022): a training-free defense that protects voice
// assistant (VA) systems against attackers hiding behind barriers.
//
// The defense compares a voice command as recorded by the VA device and by
// the user's wearable. Both recordings are replayed on the wearable's
// built-in speaker and captured by its accelerometer (cross-domain
// sensing); thru-barrier attack sound, stripped of its high frequencies by
// the barrier, becomes noisy in the vibration domain and fails a
// 2D-correlation similarity test, while a legitimate in-room command
// passes.
//
// The package is a facade over the internal implementation: phoneme
// synthesis (a stand-in for the TIMIT corpus), room/barrier acoustics,
// device models (microphones, loudspeakers, smartwatch accelerometers, VA
// products), the BRNN phoneme detector, the offline barrier-effect
// phoneme selection, cross-device synchronization over real sockets, the
// four attack generators, and the full evaluation harness that
// regenerates every table and figure of the paper. See DESIGN.md for the
// system inventory and EXPERIMENTS.md for paper-vs-measured results.
//
// Quick start:
//
//	defense, err := vibguard.NewDefense(vibguard.Options{})
//	...
//	verdict, err := defense.Inspect(vaRecording, wearableRecording, rng)
//	if verdict.Attack {
//	    // reject the voice command
//	}
package vibguard

import (
	"fmt"
	"io"
	"math/rand"
	"slices"

	"vibguard/internal/acoustics"
	"vibguard/internal/attack"
	"vibguard/internal/brnn"
	"vibguard/internal/core"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/eval"
	"vibguard/internal/phoneme"
	"vibguard/internal/segment"
	"vibguard/internal/selection"
	"vibguard/internal/syncnet"
	"vibguard/internal/wavio"
)

// SampleRate is the audio sampling rate used throughout (16 kHz).
const SampleRate = phoneme.SampleRate

// AccelSampleRate is the wearable accelerometer's sampling rate (200 Hz).
const AccelSampleRate = device.AccelSampleRate

// Core pipeline types.
type (
	// Defense is the end-to-end thru-barrier attack detection pipeline.
	Defense = core.Defense
	// Verdict is the outcome of inspecting one voice command.
	Verdict = core.Verdict
	// DefenseConfig parameterizes the pipeline.
	DefenseConfig = core.Config
	// Method selects a detector variant (full system or a baseline).
	Method = detector.Method
	// Segmenter provides effective-phoneme spans for a VA recording.
	Segmenter = detector.Segmenter
	// Span is a half-open sample range of effective-phoneme audio.
	Span = segment.Span
	// PhonemeDetector is the BRNN-based effective-phoneme detector.
	PhonemeDetector = segment.Detector
)

// Detector methods.
const (
	// MethodAudio is the audio-domain baseline (high-frequency energy
	// check) the paper compares against.
	MethodAudio = detector.MethodAudio
	// MethodVibration is cross-domain sensing without phoneme selection.
	MethodVibration = detector.MethodVibration
	// MethodFull is the proposed system.
	MethodFull = detector.MethodFull
)

// Device models.
type (
	// Wearable models a smartwatch (mic + speaker + accelerometer).
	Wearable = device.Wearable
	// VADevice models a voice assistant product with wake-word detection.
	VADevice = device.VADevice
	// Microphone, Loudspeaker, and Accelerometer are device components.
	Microphone    = device.Microphone
	Loudspeaker   = device.Loudspeaker
	Accelerometer = device.Accelerometer
)

// Speech synthesis (the TIMIT-corpus stand-in).
type (
	// VoiceProfile parameterizes one simulated speaker.
	VoiceProfile = phoneme.VoiceProfile
	// Synthesizer renders phonemes and commands for one speaker.
	Synthesizer = phoneme.Synthesizer
	// Command is a VA voice command with a phonetic transcription.
	Command = phoneme.Command
	// Utterance is a synthesized command with time-aligned phonemes.
	Utterance = phoneme.Utterance
	// PhonemeSpec describes one phoneme of the 37-phoneme inventory.
	PhonemeSpec = phoneme.Spec
)

// Acoustics.
type (
	// Room is one evaluation environment with a barrier.
	Room = acoustics.Room
	// Barrier is a wall/window/door with frequency-selective attenuation.
	Barrier = acoustics.Barrier
	// PathConfig describes a source-to-receiver acoustic path.
	PathConfig = acoustics.PathConfig
)

// Attacks and evaluation.
type (
	// Attacker generates the four thru-barrier attack types.
	Attacker = attack.Attacker
	// AttackKind identifies an attack type.
	AttackKind = attack.Kind
	// Summary bundles AUC/EER metrics of one experiment arm.
	Summary = eval.Summary
	// ROC is a receiver operating characteristic curve.
	ROC = eval.ROC
	// SelectionResult is the outcome of the offline phoneme selection.
	SelectionResult = selection.Result
)

// Attack kinds.
const (
	AttackRandom      = attack.Random
	AttackReplay      = attack.Replay
	AttackSynthesis   = attack.Synthesis
	AttackHiddenVoice = attack.HiddenVoice
)

// NewFossilGen5 returns the Fossil Gen 5 smartwatch model used in most of
// the paper's experiments.
func NewFossilGen5() *Wearable { return device.NewFossilGen5() }

// NewMoto360 returns the Moto 360 (2020) smartwatch model.
func NewMoto360() *Wearable { return device.NewMoto360() }

// VADevices returns the four VA device models of the Table I study.
func VADevices() []*VADevice { return device.AllVADevices() }

// Rooms returns the four room environments (A-D) of the evaluation.
func Rooms() []Room { return acoustics.Rooms() }

// Commands returns the 20-command corpus used by the evaluation.
func Commands() []Command { return phoneme.Commands() }

// WakeWords returns the wake-word commands ("ok google", "alexa",
// "hey siri").
func WakeWords() []Command { return phoneme.WakeWords() }

// NewVoicePool deterministically generates n speaker profiles.
func NewVoicePool(n int, seed int64) []VoiceProfile { return phoneme.NewVoicePool(n, seed) }

// NewSynthesizer creates a speech synthesizer for a voice profile.
func NewSynthesizer(p VoiceProfile) (*Synthesizer, error) { return phoneme.NewSynthesizer(p) }

// NewAttacker creates an attack generator.
func NewAttacker(seed int64) *Attacker { return attack.NewAttacker(seed) }

// SelectedPhonemes returns the 31 barrier-effect-sensitive phonemes
// identified by the offline selection study (Section V-A).
func SelectedPhonemes() map[string]bool { return selection.CanonicalSelected() }

// RunPhonemeSelection executes the offline phoneme-selection study with
// the paper's default setup and returns the per-phoneme statistics.
func RunPhonemeSelection() (*SelectionResult, error) {
	return selection.Run(selection.DefaultConfig())
}

// AlignRecordings removes the network-delay offset of the wearable
// recording relative to the VA recording using the cross-correlation of
// Eq. (5). It returns the aligned wearable recording and the estimated
// offset in samples. The aligned recording is a copy: it shares no
// memory with wearRec.
func AlignRecordings(vaRec, wearRec []float64, maxLagSeconds float64) ([]float64, int, error) {
	aligned, tau, err := syncnet.AlignRecordings(vaRec, wearRec, maxLagSeconds, SampleRate)
	return slices.Clone(aligned), tau, err
}

// Options configures NewDefense.
type Options struct {
	// Wearable performs cross-domain sensing. Defaults to a Fossil Gen 5.
	Wearable *Wearable
	// Method selects the detector. Defaults to MethodFull.
	Method Method
	// Segmenter provides effective-phoneme spans. Defaults to a freshly
	// trained BRNN phoneme detector (see TrainPhonemeDetector); supply
	// your own to reuse a trained model.
	Segmenter Segmenter
	// Threshold on the correlation score. Defaults to the calibrated
	// equal-error threshold.
	Threshold float64
	// TrainSeed drives the default detector's training.
	TrainSeed int64
}

// NewDefense builds the full detection pipeline. With a zero Options
// value it uses a Fossil Gen 5 wearable, trains the BRNN phoneme detector
// on synthetic studio speech (a few seconds of CPU time), and applies the
// paper's default parameters.
func NewDefense(opts Options) (*Defense, error) {
	if opts.Wearable == nil {
		opts.Wearable = NewFossilGen5()
	}
	if opts.Method == 0 {
		opts.Method = MethodFull
	}
	if opts.Segmenter == nil && opts.Method == MethodFull {
		det, err := TrainPhonemeDetector(DetectorTraining{Seed: opts.TrainSeed})
		if err != nil {
			return nil, err
		}
		opts.Segmenter = &detector.BRNNSegmenter{Detector: det}
	}
	cfg := core.DefaultConfig(opts.Wearable, opts.Segmenter)
	cfg.Method = opts.Method
	if opts.Threshold != 0 {
		cfg.Threshold = opts.Threshold
	}
	return core.NewDefense(cfg)
}

// DetectorTraining sizes the BRNN phoneme-detector training.
type DetectorTraining struct {
	// HiddenDim is the LSTM width (default 32; the paper uses 64, which
	// is slower to train but slightly more accurate).
	HiddenDim int
	// Voices and CommandsPerVoice size the synthetic training corpus
	// (defaults 3 and 8).
	Voices, CommandsPerVoice int
	// Epochs over the corpus (default 5).
	Epochs int
	// Seed drives initialization and data generation.
	Seed int64
}

// TrainPhonemeDetector trains the effective-phoneme BRNN on synthetic
// studio speech and returns it ready for use as a Segmenter.
func TrainPhonemeDetector(cfg DetectorTraining) (*PhonemeDetector, error) {
	if cfg.HiddenDim == 0 {
		cfg.HiddenDim = 32
	}
	if cfg.Voices == 0 {
		cfg.Voices = 3
	}
	if cfg.CommandsPerVoice == 0 {
		cfg.CommandsPerVoice = 8
	}
	if cfg.Epochs == 0 {
		cfg.Epochs = 5
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	det, err := segment.NewDetector(selection.CanonicalSelected(), brnn.Config{
		InputDim: 14, HiddenDim: cfg.HiddenDim, NumClasses: 2, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("vibguard: %w", err)
	}
	voices := phoneme.NewStudioVoicePool(cfg.Voices, cfg.Seed+5)
	cmds := phoneme.Commands()
	if cfg.CommandsPerVoice > len(cmds) {
		cfg.CommandsPerVoice = len(cmds)
	}
	var utts []*phoneme.Utterance
	for _, v := range voices {
		synth, err := phoneme.NewSynthesizer(v)
		if err != nil {
			return nil, fmt.Errorf("vibguard: %w", err)
		}
		for _, cmd := range cmds[:cfg.CommandsPerVoice] {
			u, err := synth.Synthesize(cmd)
			if err != nil {
				return nil, fmt.Errorf("vibguard: %w", err)
			}
			utts = append(utts, u)
		}
	}
	if _, err := det.Train(utts, brnn.TrainConfig{
		Epochs: cfg.Epochs, LearningRate: 0.006, ClipNorm: 5, Seed: cfg.Seed,
	}); err != nil {
		return nil, fmt.Errorf("vibguard: %w", err)
	}
	return det, nil
}

// StaticSegmenter wraps precomputed spans as a Segmenter, for controlled
// experiments with ground-truth alignments.
func StaticSegmenter(spans []Span) Segmenter {
	return &detector.StaticSegmenter{Spans: spans}
}

// OracleSpans returns the ground-truth effective-phoneme spans of an
// utterance.
func OracleSpans(utt *Utterance, selected map[string]bool) []Span {
	return segment.OracleSpans(utt, selected)
}

// Simulate convenience re-exports for building scenarios.

// SimulateNetworkDelay prepends the wearable's network-delay lead to a
// recording.
func SimulateNetworkDelay(rec []float64, delaySeconds float64, rng *rand.Rand) []float64 {
	return syncnet.SimulateNetworkDelay(rec, delaySeconds, SampleRate, rng)
}

// LoadPhonemeDetector restores a phoneme detector serialized with
// (*PhonemeDetector).Save, so a trained model can be reused across runs.
func LoadPhonemeDetector(r io.Reader) (*PhonemeDetector, error) {
	return segment.Load(r)
}

// WriteWAV writes samples in [-1, 1] as a mono 16-bit PCM WAV file.
func WriteWAV(path string, samples []float64, sampleRate int) error {
	return wavio.WriteFile(path, samples, sampleRate)
}

// ReadWAV reads a mono 16-bit PCM WAV file.
func ReadWAV(path string) (samples []float64, sampleRate int, err error) {
	return wavio.ReadFile(path)
}

// BRNNSegmenter wraps a trained phoneme detector as a Segmenter for
// NewDefense.
func BRNNSegmenter(det *PhonemeDetector) Segmenter {
	return &detector.BRNNSegmenter{Detector: det}
}
