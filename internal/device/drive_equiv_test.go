package device

import (
	"math"
	"math/rand"
	"testing"

	"vibguard/internal/dsp"
)

// driveAlwaysDominance is Accelerometer.Drive as it was before the
// saturation skip: it computes the low-frequency dominance first, for
// every drive. It is the reference the skip is pinned against.
func driveAlwaysDominance(a *Accelerometer, audio []float64, audioRate float64) (Drive, error) {
	if err := a.Validate(); err != nil {
		return Drive{}, err
	}
	if len(audio) == 0 {
		return Drive{}, nil
	}
	rho := LowFrequencyDominance(audio, audioRate)
	const couplingKnee = 800.0
	coupled := dsp.FrequencyShape(audio, audioRate, func(f float64) float64 {
		switch {
		case f < couplingKnee:
			r := f / couplingKnee
			return a.CouplingLow * r * r
		case f < 2*couplingKnee:
			frac := (f - couplingKnee) / couplingKnee
			return a.CouplingLow + (a.CouplingHigh-a.CouplingLow)*frac
		default:
			return a.CouplingHigh
		}
	})
	factor := int(audioRate / a.SampleRate)
	if factor < 1 {
		factor = 1
	}
	vib, err := dsp.DecimateSampleHold(coupled, factor)
	if err != nil {
		return Drive{}, err
	}
	vib = dsp.FrequencyShape(vib, a.SampleRate, func(f float64) float64 {
		if f <= a.ArtifactCutoffHz {
			return a.ArtifactGain
		}
		return 1
	})
	sharp := a.LowFreqNoiseSharpness
	if sharp <= 0 {
		sharp = 1
	}
	gain := a.BroadbandNoiseFactor + a.LowFreqNoiseFactor*math.Pow(rho, sharp)
	sigma := gain * dsp.RMS(vib)
	if a.NoiseCeiling > 0 && sigma > a.NoiseCeiling {
		sigma = a.NoiseCeiling
	}
	sigma += a.NoiseFloor
	return Drive{vib: vib, sigma: sigma}, nil
}

// TestDriveBitIdenticalToAlwaysDominance pins the saturation skip: Drive
// gives the vibration and noise level of the reference that always
// computes the dominance, bit for bit, on both sides of the skip's
// condition, and so does the capture drawn from it. Each case also checks
// that it exercises the side of the skip it is named for.
func TestDriveBitIdenticalToAlwaysDominance(t *testing.T) {
	const rate = 16000.0
	gen := rand.New(rand.NewSource(4))
	noisy := func(x []float64, level float64) []float64 {
		for i := range x {
			x[i] += level * gen.NormFloat64()
		}
		return x
	}
	// Loud speech-like drive: strong content above 1 kHz saturates the
	// level-proportional noise. A thru-barrier-like low tone does not.
	loud := noisy(dsp.Mix(dsp.Tone(220, 0.2, 2.815, rate), dsp.Tone(1300, 0.25, 2.815, rate),
		dsp.Tone(2600, 0.2, 2.815, rate), dsp.Tone(3900, 0.1, 2.815, rate)), 0.02)
	quiet := noisy(dsp.Tone(180, 0.05, 2.815, rate), 0.0005)
	huge := dsp.Scale(loud, 1e146/dsp.MaxAbs(loud))       // max·len above the overflow bound
	underBound := dsp.Scale(loud, 1e145/dsp.MaxAbs(loud)) // max·len just below it

	base := NewAccelerometer()
	// ceilingAt returns the accelerometer whose noise ceiling sits at
	// step(bb·rms) for the given audio, so bb·rms lands one ulp on either
	// side of it or exactly on it.
	ceilingAt := func(audio []float64, step func(float64) float64) Accelerometer {
		ref, err := driveAlwaysDominance(&base, audio, rate)
		if err != nil {
			t.Fatal(err)
		}
		a := base
		a.NoiseCeiling = step(a.BroadbandNoiseFactor * dsp.RMS(ref.vib))
		return a
	}
	noCeiling := base
	noCeiling.NoiseCeiling = 0
	cases := []struct {
		name  string
		a     Accelerometer
		audio []float64
		skip  bool
	}{
		{"loud speech", base, loud, true},
		{"low tone", base, quiet, false},
		{"one ulp above the ceiling", ceilingAt(quiet, func(v float64) float64 { return math.Nextafter(v, 0) }), quiet, true},
		{"on the ceiling", ceilingAt(quiet, func(v float64) float64 { return v }), quiet, false},
		{"one ulp below the ceiling", ceilingAt(quiet, func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }), quiet, false},
		{"no ceiling", noCeiling, loud, false},
		{"over the overflow bound", base, huge, false},
		{"under the overflow bound", base, underBound, true},
		{"all zero", base, make([]float64, 45040), false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, err := driveAlwaysDominance(&tc.a, tc.audio, rate)
			if err != nil {
				t.Fatal(err)
			}
			if got := saturates(tc.a.BroadbandNoiseFactor, dsp.RMS(want.vib), tc.a.NoiseCeiling, tc.audio); got != tc.skip {
				t.Fatalf("skip = %v, case is meant for %v", got, tc.skip)
			}
			got, err := tc.a.Drive(tc.audio, rate)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got.sigma) != math.Float64bits(want.sigma) {
				t.Fatalf("sigma %v, reference %v", got.sigma, want.sigma)
			}
			if len(got.vib) != len(want.vib) {
				t.Fatalf("%d vibration samples, reference %d", len(got.vib), len(want.vib))
			}
			for i := range got.vib {
				if math.Float64bits(got.vib[i]) != math.Float64bits(want.vib[i]) {
					t.Fatalf("vibration sample %d: %v, reference %v", i, got.vib[i], want.vib[i])
				}
			}
			vibGot := tc.a.AddNoise(got, rand.New(rand.NewSource(7)))
			vibWant := tc.a.AddNoise(want, rand.New(rand.NewSource(7)))
			for i := range vibGot {
				if math.Float64bits(vibGot[i]) != math.Float64bits(vibWant[i]) {
					t.Fatalf("capture sample %d: %v, reference %v", i, vibGot[i], vibWant[i])
				}
			}
		})
	}
}

// TestDriveCopyIsolatesNoise pins Drive.Copy: noise added to a copy never
// reaches the drive it was copied from.
func TestDriveCopyIsolatesNoise(t *testing.T) {
	a := NewAccelerometer()
	d, err := a.Drive(dsp.Tone(1500, 0.1, 0.5, 16000), 16000)
	if err != nil {
		t.Fatal(err)
	}
	before := append([]float64(nil), d.vib...)
	a.AddNoise(d.Copy(), rand.New(rand.NewSource(1)))
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(d.vib[i]) {
			t.Fatalf("sample %d changed from %v to %v", i, before[i], d.vib[i])
		}
	}
}
