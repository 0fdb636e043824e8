package dsp_test

import (
	"testing"

	"vibguard/internal/dsp/dspbench"
)

// The benchmark bodies live in dspbench so that cmd/benchdsp (which writes
// the BENCH_dsp.json baseline) measures exactly the same kernels as
// `go test -bench` / `make bench-dsp`.

func runGroup(b *testing.B, group string) {
	ran := false
	for _, c := range dspbench.Cases() {
		if c.Group == group {
			ran = true
			b.Run(c.Name, c.Fn)
		}
	}
	if !ran {
		b.Fatalf("no benchmark cases in group %q", group)
	}
}

// BenchmarkSTFT measures the planned zero-alloc spectrogram on the paper's
// vibration configuration (64-point frames at 200 Hz) and an audio-scale
// configuration (512-point frames at 16 kHz).
func BenchmarkSTFT(b *testing.B) { runGroup(b, "STFT") }

// BenchmarkSTFTLegacy is the pre-plan implementation on the same inputs.
func BenchmarkSTFTLegacy(b *testing.B) { runGroup(b, "STFTLegacy") }

// BenchmarkEstimateDelayFFT measures the Eq. (5) delay search on
// real-input transforms on sync-sized problems (16k and 45k samples, 8k
// max lag).
func BenchmarkEstimateDelayFFT(b *testing.B) { runGroup(b, "EstimateDelayFFT") }

// BenchmarkEstimateDelays measures a two-wearable session's delay
// searches, which share the VA recording's spectrum.
func BenchmarkEstimateDelays(b *testing.B) { runGroup(b, "EstimateDelays") }

// BenchmarkEstimateDelayLegacy is the direct O(n*maxLag) search on the same
// problem.
func BenchmarkEstimateDelayLegacy(b *testing.B) { runGroup(b, "EstimateDelayLegacy") }

// BenchmarkPowerSpectrum measures the packed real-input spectrum against
// the legacy full-length complex transform, and the Bluestein path on a
// replay-segment length.
func BenchmarkPowerSpectrum(b *testing.B) { runGroup(b, "PowerSpectrum") }

// BenchmarkFrequencyShape measures the replay stage's shaping filter on a
// replay-segment length next to the legacy per-call implementation.
func BenchmarkFrequencyShape(b *testing.B) { runGroup(b, "FrequencyShape") }

// BenchmarkSenseFeatures measures one full cross-domain sensing pass
// (speaker render, accelerometer capture, feature extraction) on a
// replay-segment length.
func BenchmarkSenseFeatures(b *testing.B) { runGroup(b, "SenseFeatures") }

// BenchmarkMFCCExtract measures MFCC extraction of a 2.9 s recording with
// the precomputed DCT table and range-limited filterbank next to the
// legacy per-frame cosines and dense filterbank scan.
func BenchmarkMFCCExtract(b *testing.B) { runGroup(b, "MFCCExtract") }

// BenchmarkWearableDrive measures the noise-free half of a sensing pass on
// a replay-segment length: a loud drive, whose noise level saturates, and
// a quiet one, which does not.
func BenchmarkWearableDrive(b *testing.B) { runGroup(b, "WearableDrive") }

// BenchmarkSenseShared measures three sensing pairs that share one
// recording: four concurrent drives, then each pair's noise and features.
func BenchmarkSenseShared(b *testing.B) { runGroup(b, "SenseShared") }
