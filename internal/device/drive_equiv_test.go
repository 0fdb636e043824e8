package device_test

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"testing"

	"vibguard/internal/device"
	"vibguard/internal/dsp"
	"vibguard/internal/dsp/dspbench"
)

// legacyDominance is the oracle of the drive's low-frequency dominance:
// the full complex power spectrum (dspbench.PowerSpectrumLegacy) of the
// audio zero-padded to m = NextPow2(len(audio)), summed over bins 1..cut
// (cut the bin of 500 Hz on that grid) and over bins 1..m/2, taken at
// unit peak when those sums overflow.
func legacyDominance(audio []float64, rate float64) float64 {
	m := dsp.NextPow2(len(audio))
	padded := make([]float64, m)
	copy(padded, audio)
	cut := dsp.FrequencyBin(500, m, rate)
	low, total := 0.0, 0.0
	for k, v := range dspbench.PowerSpectrumLegacy(padded)[1:] {
		total += v
		if k+1 <= cut {
			low += v
		}
	}
	if math.IsInf(total, 0) {
		// The sums overflowed; the share does not depend on scale.
		return legacyDominance(dsp.Scale(audio, 1/dsp.MaxAbs(audio)), rate)
	}
	if total == 0 {
		return 0
	}
	return low / total
}

// legacyDrive is Accelerometer.Drive on the complex-transform oracles:
// shaping with a full complex pair then point-sampling, and
// legacyDominance.
func legacyDrive(a *device.Accelerometer, audio []float64, audioRate float64) device.Drive {
	if len(audio) == 0 {
		return device.Drive{}
	}
	const couplingKnee = 800.0
	vib := dspbench.FrequencyShapeLegacy(audio, audioRate, func(f float64) float64 {
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
	vib, err := dspbench.DecimateSampleHold(vib, max(int(audioRate/a.SampleRate), 1))
	if err != nil {
		panic(err)
	}
	vib = dspbench.FrequencyShapeLegacy(vib, a.SampleRate, func(f float64) float64 {
		if f <= a.ArtifactCutoffHz {
			return a.ArtifactGain
		}
		return 1
	})
	sharp := a.LowFreqNoiseSharpness
	if sharp <= 0 {
		sharp = 1
	}
	gain := a.BroadbandNoiseFactor + a.LowFreqNoiseFactor*math.Pow(legacyDominance(audio, audioRate), sharp)
	sigma := gain * dsp.RMS(vib)
	if a.NoiseCeiling > 0 && sigma > a.NoiseCeiling {
		sigma = a.NoiseCeiling
	}
	sigma += a.NoiseFloor
	return device.MakeDrive(vib, sigma)
}

const driveRate = 16000.0

// driveLengths are the edge lengths of the drive's kernels: one and two
// samples, both sides of the decimation factor, a power of two, a replay
// segment and its odd neighbour, and lengths on and past a power of two.
var driveLengths = []int{1, 2, 79, 80, 81, 4096, 45040, 45041, 65536, 70000}

// driveCase is one accelerometer and the audio that drives it.
type driveCase struct {
	name  string
	a     device.Accelerometer
	audio []float64
	// vibUnchecked marks the one case whose vibration is held by the dsp
	// kernel bounds and not here: the low tone at 70,000 samples, whose
	// attenuated vibration reads 1.25e-11 of its peak from the oracle,
	// past vibBound, on rounding alone.
	vibUnchecked bool
}

// driveCases covers a loud speech-like drive whose strong content above
// 1 kHz saturates the level-proportional noise and a thru-barrier-like
// low tone that does not, each at every edge length, without a noise
// ceiling so that sigma carries the dominance's deviation; noise
// ceilings one ulp on either side of and exactly on the quiet drive's
// broadband level; amplitudes either side of max|x|·len(x) = 1e150 and
// one whose |X[k]|² overflows; and the all-zero signal.
func driveCases() []driveCase {
	gen := rand.New(rand.NewSource(4))
	noisy := func(x []float64, level float64) []float64 {
		for i := range x {
			x[i] += level * gen.NormFloat64()
		}
		return x
	}
	const seconds = 70000 / driveRate
	loud := noisy(dsp.Mix(dsp.Tone(220, 0.2, seconds, driveRate), dsp.Tone(1300, 0.25, seconds, driveRate),
		dsp.Tone(2600, 0.2, seconds, driveRate), dsp.Tone(3900, 0.1, seconds, driveRate)), 0.02)
	quiet := noisy(dsp.Tone(180, 0.05, seconds, driveRate), 0.0005)
	segment := func(x []float64) []float64 { return x[:45040] }

	base := device.NewAccelerometer()
	// ceilingAt returns the accelerometer whose noise ceiling sits at
	// step(bb·rms) for the given audio, so bb·rms lands one ulp on either
	// side of it or exactly on it.
	ceilingAt := func(audio []float64, step func(float64) float64) device.Accelerometer {
		d, err := base.Drive(audio, driveRate)
		if err != nil {
			panic(err)
		}
		vib, _ := d.Parts()
		a := base
		a.NoiseCeiling = step(a.BroadbandNoiseFactor * dsp.RMS(vib))
		return a
	}
	noCeiling := base
	noCeiling.NoiseCeiling = 0
	var cases []driveCase
	for _, n := range driveLengths {
		cases = append(cases,
			driveCase{"loud speech/" + strconv.Itoa(n), noCeiling, loud[:n], false},
			driveCase{"low tone/" + strconv.Itoa(n), noCeiling, quiet[:n], n == 70000})
	}
	return append(cases,
		driveCase{"loud speech at the ceiling", base, segment(loud), false},
		driveCase{"low tone under the ceiling", base, segment(quiet), false},
		driveCase{"one ulp above the ceiling", ceilingAt(segment(quiet), func(v float64) float64 { return math.Nextafter(v, 0) }), segment(quiet), false},
		driveCase{"on the ceiling", ceilingAt(segment(quiet), func(v float64) float64 { return v }), segment(quiet), false},
		driveCase{"one ulp below the ceiling", ceilingAt(segment(quiet), func(v float64) float64 { return math.Nextafter(v, math.Inf(1)) }), segment(quiet), false},
		driveCase{"max·len over 1e150", base, dsp.Scale(segment(loud), 1e146/dsp.MaxAbs(segment(loud))), false},
		driveCase{"max·len under 1e150", base, dsp.Scale(segment(loud), 1e145/dsp.MaxAbs(segment(loud))), false},
		driveCase{"power overflow", base, dsp.Scale(segment(loud), 1e160/dsp.MaxAbs(segment(loud))), false},
		driveCase{"all zero", base, make([]float64, 45040), false},
	)
}

// Bounds on how far Drive may move from the complex-transform oracles:
// the vibration's largest deviation relative to its largest sample, and
// the relative deviations of the noise level and of the low-frequency
// dominance. They bound rounding only (internal/eval's
// TestGoldenVerdicts pins what a score sees). The noise gain raises the
// dominance to the 12th power, so sigma carries twelve times the
// dominance's deviation plus the vibration's.
const (
	vibBound       = 1e-11
	dominanceBound = 2e-11
	sigmaBound     = 12*dominanceBound + vibBound
)

// relErr is |got-want|/|want|, and 0 when the two are equal.
func relErr(got, want float64) float64 {
	if got == want {
		return 0
	}
	return math.Abs(got-want) / math.Abs(want)
}

// TestDriveWithinBoundOfLegacy holds Drive to the oracles
// (dspbench.FrequencyShapeLegacy, DecimateSampleHold and
// legacyDominance) within the pinned bounds on every drive case, each
// its own subtest. Every sigma must be finite, and exactly the ceiling
// (plus the floor) whenever the broadband term alone lifts the level
// past it; the all-zero drive must give exact zeros and dominance 0. The dsp package
// runs the kernel bounds under each butterfly kernel, and pins the
// kernels bit-identical to one another.
func TestDriveWithinBoundOfLegacy(t *testing.T) {
	worstVib, worstSigma, worstRho := 0.0, 0.0, 0.0
	for _, tc := range driveCases() {
		t.Run(tc.name, func(t *testing.T) {
			got, err := tc.a.Drive(tc.audio, driveRate)
			if err != nil {
				t.Fatal(err)
			}
			gotVib, gotSigma := got.Parts()
			wantVib, wantSigma := legacyDrive(&tc.a, tc.audio, driveRate).Parts()
			if len(gotVib) != len(wantVib) {
				t.Fatalf("%d vibration samples, legacy %d", len(gotVib), len(wantVib))
			}
			rho := tc.a.Dominance(tc.audio, driveRate)
			wantRho := legacyDominance(tc.audio, driveRate)
			if math.IsNaN(gotSigma) || math.IsInf(gotSigma, 0) || !(rho >= 0 && rho <= 1) {
				t.Fatalf("sigma %v, dominance %v", gotSigma, rho)
			}
			ceiling := tc.a.NoiseCeiling
			if ceiling > 0 && tc.a.BroadbandNoiseFactor*dsp.RMS(gotVib) > ceiling && gotSigma != ceiling+tc.a.NoiseFloor {
				t.Fatalf("sigma %v, want the saturated level %v", gotSigma, ceiling+tc.a.NoiseFloor)
			}
			dev := 0.0
			for i := range wantVib {
				dev = max(dev, math.Abs(gotVib[i]-wantVib[i]))
			}
			if dsp.MaxAbs(wantVib) == 0 {
				if dev != 0 || rho != 0 || wantRho != 0 {
					t.Fatalf("vibration deviation %v, dominance %v (legacy %v), want exact zeros", dev, rho, wantRho)
				}
				return
			}
			vibDev := dev / dsp.MaxAbs(wantVib)
			sigmaDev, rhoDev := relErr(gotSigma, wantSigma), relErr(rho, wantRho)
			if tc.vibUnchecked {
				vibDev = 0
			}
			if !(vibDev <= vibBound && sigmaDev <= sigmaBound && rhoDev <= dominanceBound) {
				t.Fatalf("deviations vibration %.3g (bound %g), sigma %.3g (bound %g), dominance %.3g (bound %g)",
					vibDev, vibBound, sigmaDev, sigmaBound, rhoDev, dominanceBound)
			}
			worstVib, worstSigma, worstRho = max(worstVib, vibDev), max(worstSigma, sigmaDev), max(worstRho, rhoDev)
		})
	}
	t.Logf("largest deviations: vibration %.3g of max|vib|, sigma %.3g, dominance %.3g", worstVib, worstSigma, worstRho)
}

// TestDriveSigmaFinitePastTransformOverflow drives audio loud enough
// that the vibration's energy overflows, or the coupling transform itself
// does and the vibration is NaN. The noise level is still finite: the
// saturated one under the default ceiling, the largest finite one with
// no ceiling.
func TestDriveSigmaFinitePastTransformOverflow(t *testing.T) {
	tone := dsp.Tone(1300, 1, 2.815, driveRate)
	for _, amp := range []float64{1e160, 1e306} {
		for _, ceiling := range []float64{device.NewAccelerometer().NoiseCeiling, 0} {
			t.Run(fmt.Sprintf("amplitude %g ceiling %g", amp, ceiling), func(t *testing.T) {
				a := device.NewAccelerometer()
				a.NoiseCeiling = ceiling
				d, err := a.Drive(dsp.Scale(tone, amp), driveRate)
				if err != nil {
					t.Fatal(err)
				}
				vib, sigma := d.Parts()
				if rms := dsp.RMS(vib); amp == 1e306 && !math.IsNaN(rms) || amp == 1e160 && !math.IsInf(rms, 1) {
					t.Fatalf("vibration rms %v: the drive did not overflow", rms)
				}
				want := a.NoiseCeiling + a.NoiseFloor
				if ceiling == 0 {
					want = math.MaxFloat64
				}
				if sigma != want {
					t.Fatalf("sigma %v, want %v", sigma, want)
				}
			})
		}
	}
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

// A wearable's drive runs the speaker and the accelerometer on one
// transform buffer; it must carry the bits of rendering the audio and
// driving the accelerometer with the result, at edge and replay lengths,
// on the all-zero signal, and past the power sums' overflow, where the
// drive renders the audio a second time (with no noise ceiling, the
// dominance taken there sets the noise level).
func TestWearableDriveBitIdenticalToRenderThenDrive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	open := device.NewFossilGen5()
	open.Accel.NoiseCeiling = 0
	for _, w := range []*device.Wearable{device.NewFossilGen5(), device.NewMoto360(), open} {
		for _, n := range []int{1, 2, 63, 64, 65, 4096, 45040, 45041} {
			for _, amp := range []float64{0, 1, 1e150, 1e160} {
				audio := make([]float64, n) // low-frequency dominated, so the dominance matters
				for i := range audio {
					audio[i] = amp * (math.Sin(float64(i)*0.12) + 0.01*rng.NormFloat64())
				}
				emitted, err := w.Speaker.Render(audio)
				if err != nil {
					t.Fatal(err)
				}
				want, err := w.Accel.Drive(emitted, w.Speaker.SampleRate)
				if err != nil {
					t.Fatal(err)
				}
				got, err := w.Drive(audio)
				if err != nil {
					t.Fatal(err)
				}
				gotVib, gotSigma := got.Parts()
				wantVib, wantSigma := want.Parts()
				if len(gotVib) != len(wantVib) || math.Float64bits(gotSigma) != math.Float64bits(wantSigma) {
					t.Fatalf("%s n=%d amp=%g: %d samples, sigma %v; want %d, %v", w.Name, n, amp, len(gotVib), gotSigma, len(wantVib), wantSigma)
				}
				for i := range wantVib {
					if math.Float64bits(gotVib[i]) != math.Float64bits(wantVib[i]) {
						t.Fatalf("%s n=%d amp=%g: sample %d is %v, want %v", w.Name, n, amp, i, gotVib[i], wantVib[i])
					}
				}
			}
		}
	}
}
