package sensing

import (
	"math"
	"math/rand"
	"testing"

	"vibguard/internal/device"
	"vibguard/internal/dsp"
)

// sameSpectrogram reports whether two spectrograms (either may be nil)
// hold the same bits.
func sameSpectrogram(a, b *dsp.Spectrogram) bool {
	if a == nil || b == nil {
		return a == b
	}
	if len(a.Power) != len(b.Power) || a.FFTSize != b.FFTSize || a.HopSize != b.HopSize ||
		math.Float64bits(a.SampleRate) != math.Float64bits(b.SampleRate) {
		return false
	}
	for t := range a.Power {
		if len(a.Power[t]) != len(b.Power[t]) {
			return false
		}
		for k := range a.Power[t] {
			if math.Float64bits(a.Power[t][k]) != math.Float64bits(b.Power[t][k]) {
				return false
			}
		}
	}
	return true
}

// TestSensePairBitIdenticalToSequential pins SensePair against two
// sequential SenseFeatures calls on one shared rng: the same features bit
// for bit, the same error, and the same rng state afterwards. The drives
// run concurrently, so this is the argument that the rng draw order, not
// the scheduling, decides every bit.
func TestSensePairBitIdenticalToSequential(t *testing.T) {
	gen := rand.New(rand.NewSource(3))
	signal := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = 0.1*math.Sin(2*math.Pi*1500*float64(i)/16000) + 0.02*gen.NormFloat64()
		}
		return x
	}
	a, b := signal(12000), signal(12000)
	moving := device.NewFossilGen5()
	moving.Accel.BodyMotionAmp = 0.01
	invalid := device.NewFossilGen5()
	invalid.Accel.SampleRate = 0
	badCfg := DefaultConfig()
	badCfg.FFTSize = 63

	cases := []struct {
		name string
		w    *device.Wearable
		a, b []float64
		cfg  Config
	}{
		{"default", device.NewFossilGen5(), a, b, DefaultConfig()},
		{"unequal lengths", device.NewMoto360(), a, signal(7001), DefaultConfig()},
		{"body motion", moving, a, b, DefaultConfig()},
		{"empty first segment", moving, nil, b, DefaultConfig()},
		{"empty second segment", moving, a, []float64{}, DefaultConfig()},
		{"invalid wearable", invalid, a, b, DefaultConfig()},
		{"invalid config", device.NewFossilGen5(), a, b, badCfg},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seqRng := rand.New(rand.NewSource(9))
			wantA, errA := SenseFeatures(tc.w, tc.a, tc.cfg, seqRng)
			var wantB *dsp.Spectrogram
			wantErr := errA
			if errA == nil {
				wantB, wantErr = SenseFeatures(tc.w, tc.b, tc.cfg, seqRng)
			}
			if wantErr != nil {
				wantA, wantB = nil, nil
			}
			pairRng := rand.New(rand.NewSource(9))
			gotA, gotB, err := SensePair(tc.w, tc.a, tc.b, tc.cfg, pairRng)
			if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
				t.Fatalf("error %v, sequential %v", err, wantErr)
			}
			if !sameSpectrogram(gotA, wantA) || !sameSpectrogram(gotB, wantB) {
				t.Fatal("features differ from the sequential passes")
			}
			if err == nil {
				if got, want := pairRng.Int63(), seqRng.Int63(); got != want {
					t.Errorf("rng state differs afterwards: next draw %d, sequential %d", got, want)
				}
			}
		})
	}
}
