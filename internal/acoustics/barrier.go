// Package acoustics models the sound-propagation substrate of the paper's
// experiments: the frequency-selective barrier effect of Eq. (1), spherical
// spreading loss over distance, ambient room noise, and the four room
// environments (A-D) of the evaluation.
package acoustics

import (
	"fmt"
	"math"
	"math/rand"

	"vibguard/internal/dsp"
)

// Material identifies a barrier material with its frequency-dependent sound
// attenuation behaviour.
type Material int

// Barrier materials studied in the paper (Section III-B).
const (
	Glass Material = iota + 1
	Wood
	Brick
)

// String returns the material name.
func (m Material) String() string {
	switch m {
	case Glass:
		return "glass"
	case Wood:
		return "wood"
	case Brick:
		return "brick"
	default:
		return "unknown"
	}
}

// Alpha returns the attenuation coefficient α(f, η) of Eq. (1) in nepers
// per centimeter at frequency f, following the standard transmission-loss
// shape of panel barriers: a steep mass-law rise above ~500 Hz (matching
// the paper's observation that thru-barrier sound is dominated by
// 85-500 Hz components), a coincidence dip near 2.5 kHz where the panel's
// bending waves match the airborne wavelength and transmission improves,
// and damping-controlled loss above. Brick attenuates heavily across the
// whole band, which is why the paper focuses attacks on glass windows and
// wooden doors.
func (m Material) Alpha(f float64) float64 {
	s1 := sigmoid((f - 500) / 180)
	s2 := sigmoid((f - 3300) / 300)
	d := f - 2550
	dip := math.Exp(-d * d / (280 * 280))
	switch m {
	case Glass:
		return 0.40 + 7.2*s1 - 2.3*dip + 1.75*s2
	case Wood:
		return 0.06 + 0.90*s1 - 0.29*dip + 0.22*s2
	case Brick:
		return 0.40 + 0.30*s1
	default:
		return 0
	}
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// Barrier is a physical barrier with a material and thickness.
type Barrier struct {
	// Material determines the attenuation curve.
	Material Material
	// ThicknessCM is the barrier thickness Δd in centimeters.
	ThicknessCM float64
	// Name labels the barrier in reports, e.g. "glass window".
	Name string
}

// Standard barriers from the paper's four rooms.
var (
	// GlassWindow is the glass window of Room A (~0.5 cm pane).
	GlassWindow = Barrier{Material: Glass, ThicknessCM: 0.5, Name: "glass window"}
	// WoodenDoor is the wooden door of Rooms B and C (~4 cm).
	WoodenDoor = Barrier{Material: Wood, ThicknessCM: 4, Name: "wooden door"}
	// GlassWall is the glass wall of Room D (~1 cm pane).
	GlassWall = Barrier{Material: Glass, ThicknessCM: 0.6, Name: "glass wall"}
	// BrickWall is a heavy masonry wall (~20 cm); attacks through it are
	// impractical (Section III-B).
	BrickWall = Barrier{Material: Brick, ThicknessCM: 20, Name: "brick wall"}
)

// Gain returns the pressure transmission gain of the barrier at frequency
// f, i.e. e^{-α(f,η)·Δd} from Eq. (1).
func (b Barrier) Gain(f float64) float64 {
	return math.Exp(-b.Material.Alpha(f) * b.ThicknessCM)
}

// Apply filters a 16 kHz signal through the barrier's transmission curve.
func (b Barrier) Apply(x []float64, sampleRate float64) []float64 {
	return dsp.FrequencyShape(x, sampleRate, b.Gain)
}

// Validate checks barrier parameters.
func (b Barrier) Validate() error {
	if b.Material.String() == "unknown" {
		return fmt.Errorf("acoustics: unknown material %d", b.Material)
	}
	if b.ThicknessCM <= 0 {
		return fmt.Errorf("acoustics: thickness %vcm must be positive", b.ThicknessCM)
	}
	return nil
}

// SpreadingGain returns the free-field spherical spreading gain at the
// given distance in meters, referenced to 1 m. Distances below 0.1 m clamp
// to avoid unbounded near-field gain.
func SpreadingGain(distanceM float64) float64 {
	if distanceM < 0.1 {
		distanceM = 0.1
	}
	return 1 / distanceM
}

// Propagate attenuates a signal for free-field travel over the given
// distance in meters (referenced to 1 m).
func Propagate(x []float64, distanceM float64) []float64 {
	return dsp.Scale(x, SpreadingGain(distanceM))
}

// AmbientNoise generates n samples of room background noise at the given
// sound pressure level, with a pink-ish (low-frequency-weighted) spectrum
// typical of HVAC and street noise.
func AmbientNoise(n int, splDB float64, sampleRate float64, rng *rand.Rand) []float64 {
	if n <= 0 {
		return nil
	}
	noise := make([]float64, n)
	for i := range noise {
		noise[i] = rng.NormFloat64()
	}
	shaped := dsp.FrequencyShape(noise, sampleRate, func(f float64) float64 {
		if f < 20 {
			return 1
		}
		return math.Sqrt(20 / f)
	})
	target := dsp.SPLToAmplitude(splDB)
	out, err := dsp.NormalizeRMS(shaped, target)
	if err != nil {
		return shaped
	}
	return out
}
