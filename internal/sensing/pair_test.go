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

// TestSenseSharedBitIdenticalToSequential pins SenseShared against
// sequential SenseFeatures calls: pair i gives the same features bit for
// bit as SenseFeatures on a then on bs[i] with rngs[i], the same error,
// and leaves rngs[i] in the same state. The drives run concurrently, so
// this is the argument that the per-pair rng draw order, not the
// scheduling, decides every bit. With several pairs it also shows that one
// pair's noise never reaches the shared drive of a: every pair's features
// of a match a fresh sequential pass.
func TestSenseSharedBitIdenticalToSequential(t *testing.T) {
	gen := rand.New(rand.NewSource(3))
	signal := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = 0.1*math.Sin(2*math.Pi*1500*float64(i)/16000) + 0.02*gen.NormFloat64()
		}
		return x
	}
	a, b, c := signal(12000), signal(12000), signal(9000)
	moving := device.NewFossilGen5()
	moving.Accel.BodyMotionAmp = 0.01
	invalid := device.NewFossilGen5()
	invalid.Accel.SampleRate = 0
	badCfg := DefaultConfig()
	badCfg.FFTSize = 63

	cases := []struct {
		name  string
		w     *device.Wearable
		a     []float64
		bs    [][]float64
		seeds []int64
		cfg   Config
	}{
		{"default", device.NewFossilGen5(), a, [][]float64{b}, []int64{9}, DefaultConfig()},
		{"unequal lengths", device.NewMoto360(), a, [][]float64{signal(7001)}, []int64{9}, DefaultConfig()},
		{"body motion", moving, a, [][]float64{b}, []int64{9}, DefaultConfig()},
		{"empty first segment", moving, nil, [][]float64{b}, []int64{9}, DefaultConfig()},
		{"empty second segment", moving, a, [][]float64{{}}, []int64{9}, DefaultConfig()},
		{"invalid wearable", invalid, a, [][]float64{b}, []int64{9}, DefaultConfig()},
		{"invalid config", device.NewFossilGen5(), a, [][]float64{b}, []int64{9}, badCfg},
		{"two devices", device.NewFossilGen5(), a, [][]float64{b, c}, []int64{9, 10}, DefaultConfig()},
		{"three devices, body motion", moving, a, [][]float64{c, b, signal(7001)}, []int64{9, 10, 11}, DefaultConfig()},
		{"three devices, one empty", device.NewMoto360(), a, [][]float64{b, nil, c}, []int64{9, 10, 11}, DefaultConfig()},
		{"two devices, same seed", device.NewFossilGen5(), a, [][]float64{b, b}, []int64{9, 9}, DefaultConfig()},
		{"two devices, invalid wearable", invalid, a, [][]float64{b, c}, []int64{9, 10}, DefaultConfig()},
		{"two devices, invalid config", device.NewFossilGen5(), a, [][]float64{b, c}, []int64{9, 10}, badCfg},
		{"no devices", device.NewFossilGen5(), a, nil, nil, DefaultConfig()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			aCopy := append([]float64(nil), tc.a...)
			rngs := make([]*rand.Rand, len(tc.bs))
			for i, seed := range tc.seeds {
				rngs[i] = rand.New(rand.NewSource(seed))
			}
			pairs := SenseShared(tc.w, tc.a, tc.bs, tc.cfg, rngs)
			if len(pairs) != len(tc.bs) {
				t.Fatalf("%d pairs for %d recordings", len(pairs), len(tc.bs))
			}
			for i, bRec := range tc.bs {
				seqRng := rand.New(rand.NewSource(tc.seeds[i]))
				wantA, errA := SenseFeatures(tc.w, tc.a, tc.cfg, seqRng)
				var wantB *dsp.Spectrogram
				wantErr := errA
				if errA == nil {
					wantB, wantErr = SenseFeatures(tc.w, bRec, tc.cfg, seqRng)
				}
				if wantErr != nil {
					wantA, wantB = nil, nil
				}
				got := pairs[i]
				if (got.Err == nil) != (wantErr == nil) || (got.Err != nil && got.Err.Error() != wantErr.Error()) {
					t.Fatalf("pair %d: error %v, sequential %v", i, got.Err, wantErr)
				}
				if !sameSpectrogram(got.A, wantA) || !sameSpectrogram(got.B, wantB) {
					t.Fatalf("pair %d: features differ from the sequential passes", i)
				}
				if got.Err == nil {
					if g, w := rngs[i].Int63(), seqRng.Int63(); g != w {
						t.Errorf("pair %d: rng state differs afterwards: next draw %d, sequential %d", i, g, w)
					}
				}
			}
			for i := range aCopy {
				if math.Float64bits(aCopy[i]) != math.Float64bits(tc.a[i]) {
					t.Fatalf("SenseShared wrote the shared recording at sample %d", i)
				}
			}
		})
	}
}
