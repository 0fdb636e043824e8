package device_test

import (
	"math"
	"math/rand"
	"testing"

	"vibguard/internal/device"
	"vibguard/internal/dsp"
	"vibguard/internal/dsp/dspbench"
)

// driveKernels are the two numerical kernels of an accelerometer drive:
// shaping-and-decimating the audio, and its low-frequency dominance.
type driveKernels struct {
	shapeDecimate func(x []float64, rate float64, gain func(float64) float64, factor int) []float64
	dominance     func(audio []float64, rate float64) float64
}

// currentKernels are the ones Accelerometer.Drive runs.
var currentKernels = driveKernels{dsp.ShapeDecimate, device.LowFrequencyDominance}

// legacyKernels are the complex-transform oracles they replaced: shaping
// with a full complex pair then point-sampling, and the dominance summed
// over a full exact-length complex spectrum.
var legacyKernels = driveKernels{
	shapeDecimate: func(x []float64, rate float64, gain func(float64) float64, factor int) []float64 {
		vib, err := dsp.DecimateSampleHold(dspbench.FrequencyShapeLegacy(x, rate, gain), factor)
		if err != nil {
			panic(err)
		}
		return vib
	},
	dominance: func(audio []float64, rate float64) float64 {
		cut := dsp.FrequencyBin(500, len(audio), rate)
		low, total := 0.0, 0.0
		for k, v := range dspbench.PowerSpectrumLegacy(audio) {
			if k == 0 {
				continue
			}
			total += v
			if k <= cut {
				low += v
			}
		}
		if total == 0 {
			return 0
		}
		return low / total
	},
}

// referenceDrive is Accelerometer.Drive as it was before the saturation
// skip, on the given kernels: it computes the low-frequency dominance
// first, for every drive.
func referenceDrive(a *device.Accelerometer, audio []float64, audioRate float64, k driveKernels) device.Drive {
	if len(audio) == 0 {
		return device.Drive{}
	}
	rho := k.dominance(audio, audioRate)
	const couplingKnee = 800.0
	factor := max(int(audioRate/a.SampleRate), 1)
	vib := k.shapeDecimate(audio, audioRate, func(f float64) float64 {
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
	}, factor)
	vib = k.shapeDecimate(vib, a.SampleRate, func(f float64) float64 {
		if f <= a.ArtifactCutoffHz {
			return a.ArtifactGain
		}
		return 1
	}, 1)
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
	return device.MakeDrive(vib, sigma)
}

const driveRate = 16000.0

// driveCase is one accelerometer and drive audio, with the side of the
// saturation skip it exercises.
type driveCase struct {
	name  string
	a     device.Accelerometer
	audio []float64
	skip  bool
}

// driveCases covers both sides of the saturation skip's condition: a loud
// speech-like drive whose strong content above 1 kHz saturates the
// level-proportional noise, a thru-barrier-like low tone that does not,
// noise ceilings one ulp on either side of and exactly on the quiet
// drive's broadband level, no ceiling, both sides of the overflow bound,
// odd and power-of-two lengths, and the all-zero signal.
func driveCases() []driveCase {
	gen := rand.New(rand.NewSource(4))
	noisy := func(x []float64, level float64) []float64 {
		for i := range x {
			x[i] += level * gen.NormFloat64()
		}
		return x
	}
	loud := noisy(dsp.Mix(dsp.Tone(220, 0.2, 2.815, driveRate), dsp.Tone(1300, 0.25, 2.815, driveRate),
		dsp.Tone(2600, 0.2, 2.815, driveRate), dsp.Tone(3900, 0.1, 2.815, driveRate)), 0.02)
	quiet := noisy(dsp.Tone(180, 0.05, 2.815, driveRate), 0.0005)
	huge := dsp.Scale(loud, 1e146/dsp.MaxAbs(loud))       // max·len above the overflow bound
	underBound := dsp.Scale(loud, 1e145/dsp.MaxAbs(loud)) // max·len just below it

	base := device.NewAccelerometer()
	// ceilingAt returns the accelerometer whose noise ceiling sits at
	// step(bb·rms) for the given audio, so bb·rms lands one ulp on either
	// side of it or exactly on it.
	ceilingAt := func(audio []float64, step func(float64) float64) device.Accelerometer {
		vib, _ := referenceDrive(&base, audio, driveRate, currentKernels).Parts()
		a := base
		a.NoiseCeiling = step(a.BroadbandNoiseFactor * dsp.RMS(vib))
		return a
	}
	noCeiling := base
	noCeiling.NoiseCeiling = 0
	return []driveCase{
		{"loud speech", base, loud, true},
		{"low tone", base, quiet, false},
		{"one ulp above the ceiling", ceilingAt(quiet, func(v float64) float64 { return math.Nextafter(v, 0) }), quiet, true},
		{"on the ceiling", ceilingAt(quiet, func(v float64) float64 { return v }), quiet, false},
		{"one ulp below the ceiling", ceilingAt(quiet, func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }), quiet, false},
		{"no ceiling", noCeiling, loud, false},
		{"over the overflow bound", base, huge, false},
		{"under the overflow bound", base, underBound, true},
		{"odd length", noCeiling, quiet[:45039], false},
		{"power-of-two length", noCeiling, quiet[:32768], false},
		{"all zero", base, make([]float64, 45040), false},
	}
}

// TestDriveSkipBitIdenticalToAlwaysDominance pins the saturation skip:
// Drive gives the vibration and noise level of the same kernels with the
// dominance always computed, bit for bit, on both sides of the skip's
// condition, and so does the capture drawn from it. Each case also checks
// that it exercises the side of the skip it is named for.
func TestDriveSkipBitIdenticalToAlwaysDominance(t *testing.T) {
	for _, tc := range driveCases() {
		t.Run(tc.name, func(t *testing.T) {
			want := referenceDrive(&tc.a, tc.audio, driveRate, currentKernels)
			wantVib, wantSigma := want.Parts()
			if got := device.Saturates(tc.a.BroadbandNoiseFactor, dsp.RMS(wantVib), tc.a.NoiseCeiling, tc.audio); got != tc.skip {
				t.Fatalf("skip = %v, case is meant for %v", got, tc.skip)
			}
			got, err := tc.a.Drive(tc.audio, driveRate)
			if err != nil {
				t.Fatal(err)
			}
			gotVib, gotSigma := got.Parts()
			if math.Float64bits(gotSigma) != math.Float64bits(wantSigma) {
				t.Fatalf("sigma %v, reference %v", gotSigma, wantSigma)
			}
			if len(gotVib) != len(wantVib) {
				t.Fatalf("%d vibration samples, reference %d", len(gotVib), len(wantVib))
			}
			for i := range gotVib {
				if math.Float64bits(gotVib[i]) != math.Float64bits(wantVib[i]) {
					t.Fatalf("vibration sample %d: %v, reference %v", i, gotVib[i], wantVib[i])
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

// Bounds on how far Drive may move from the legacy complex-transform
// kernels: the vibration's largest deviation relative to its largest
// sample, and the relative deviations of the noise level and of the
// low-frequency dominance. They bound rounding only (internal/eval's
// TestGoldenVerdicts pins what a score sees). The noise gain raises the
// dominance to the 12th power, so sigma carries twelve times the
// dominance's deviation plus the vibration's.
const (
	vibBound       = 1e-11
	dominanceBound = 2e-11
	sigmaBound     = 12*dominanceBound + vibBound
)

// TestDriveWithinBoundOfLegacy holds Drive to the legacy oracle
// (dspbench.FrequencyShapeLegacy, DecimateSampleHold and
// dspbench.PowerSpectrumLegacy) within the pinned bounds, on every drive
// case; the all-zero drive must give exact zeros and dominance 0. The
// dsp package runs the same kernel bounds under each butterfly kernel,
// and pins the kernels bit-identical to one another.
func TestDriveWithinBoundOfLegacy(t *testing.T) {
	worstVib, worstSigma, worstRho := 0.0, 0.0, 0.0
	for _, tc := range driveCases() {
		got, err := tc.a.Drive(tc.audio, driveRate)
		if err != nil {
			t.Fatal(err)
		}
		gotVib, gotSigma := got.Parts()
		wantVib, wantSigma := referenceDrive(&tc.a, tc.audio, driveRate, legacyKernels).Parts()
		if len(gotVib) != len(wantVib) {
			t.Fatalf("%s: %d vibration samples, legacy %d", tc.name, len(gotVib), len(wantVib))
		}
		dev := 0.0
		for i := range wantVib {
			dev = max(dev, math.Abs(gotVib[i]-wantVib[i]))
		}
		rho := device.LowFrequencyDominance(tc.audio, driveRate)
		wantRho := legacyKernels.dominance(tc.audio, driveRate)
		if dsp.MaxAbs(wantVib) == 0 {
			if dev != 0 || rho != 0 || wantRho != 0 {
				t.Fatalf("%s: vibration deviation %v, dominance %v (legacy %v), want exact zeros", tc.name, dev, rho, wantRho)
			}
			continue
		}
		vibDev := dev / dsp.MaxAbs(wantVib)
		sigmaDev := math.Abs(gotSigma-wantSigma) / wantSigma
		rhoDev := math.Abs(rho-wantRho) / wantRho
		if !(vibDev <= vibBound && sigmaDev <= sigmaBound && rhoDev <= dominanceBound) {
			t.Fatalf("%s: deviations vibration %.3g (bound %g), sigma %.3g (bound %g), dominance %.3g (bound %g)",
				tc.name, vibDev, vibBound, sigmaDev, sigmaBound, rhoDev, dominanceBound)
		}
		worstVib, worstSigma, worstRho = max(worstVib, vibDev), max(worstSigma, sigmaDev), max(worstRho, rhoDev)
	}
	t.Logf("largest deviations: vibration %.3g of max|vib|, sigma %.3g, dominance %.3g", worstVib, worstSigma, worstRho)
}

// TestDriveCopyIsolatesNoise pins Drive.Copy: noise added to a copy never
// reaches the drive it was copied from.
func TestDriveCopyIsolatesNoise(t *testing.T) {
	a := device.NewAccelerometer()
	d, err := a.Drive(dsp.Tone(1500, 0.1, 0.5, 16000), 16000)
	if err != nil {
		t.Fatal(err)
	}
	vib, _ := d.Parts()
	before := append([]float64(nil), vib...)
	a.AddNoise(d.Copy(), rand.New(rand.NewSource(1)))
	for i := range before {
		if math.Float64bits(before[i]) != math.Float64bits(vib[i]) {
			t.Fatalf("sample %d changed from %v to %v", i, before[i], vib[i])
		}
	}
}
