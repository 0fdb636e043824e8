// Package phoneme provides a synthetic stand-in for the TIMIT phoneme
// corpus used by the paper: a 37-phoneme inventory matching Table II, a
// formant-based source-filter synthesizer, parametric voice profiles for
// simulated speakers, and a corpus of VA voice commands with time-aligned
// phonetic transcriptions.
//
// The substitution is documented in DESIGN.md: the defense depends only on
// the spectral envelope class of each phoneme (strong voiced vowels vs.
// weak fricatives vs. stop bursts), which formant synthesis reproduces.
package phoneme

import (
	"fmt"
	"sort"
)

// SampleRate is the audio sampling rate used throughout the system, matching
// the 16 kHz microphone recordings in the paper.
const SampleRate = 16000.0

// Class categorizes a phoneme by its articulatory production, which
// determines its synthesis recipe and its spectral energy profile.
type Class int

// Phoneme classes.
const (
	ClassVowel Class = iota + 1
	ClassDiphthong
	ClassSemivowel
	ClassNasal
	ClassFricativeVoiced
	ClassFricativeUnvoiced
	ClassStopVoiced
	ClassStopUnvoiced
	ClassAffricate
	ClassAspirate
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassVowel:
		return "vowel"
	case ClassDiphthong:
		return "diphthong"
	case ClassSemivowel:
		return "semivowel"
	case ClassNasal:
		return "nasal"
	case ClassFricativeVoiced:
		return "fricative-voiced"
	case ClassFricativeUnvoiced:
		return "fricative-unvoiced"
	case ClassStopVoiced:
		return "stop-voiced"
	case ClassStopUnvoiced:
		return "stop-unvoiced"
	case ClassAffricate:
		return "affricate"
	case ClassAspirate:
		return "aspirate"
	default:
		return "unknown"
	}
}

// Spec describes one phoneme: its TIMIT symbol, articulatory class,
// reference formant frequencies (adult male), synthesis parameters, and its
// appearance count in common VA commands (Table II of the paper).
type Spec struct {
	// Symbol is the TIMIT phoneme symbol, e.g. "ae" or "t".
	Symbol string
	// Class is the articulatory class.
	Class Class
	// Formants holds up to three formant center frequencies in Hz for
	// voiced sounds. For diphthongs these are the starting formants.
	Formants [3]float64
	// FormantsEnd holds the ending formants for diphthongs (zero for
	// monophthongs).
	FormantsEnd [3]float64
	// NoiseCenter and NoiseWidth describe the frication noise band in Hz
	// for fricatives, affricates, and stop bursts.
	NoiseCenter float64
	NoiseWidth  float64
	// Intensity is the relative acoustic intensity of the phoneme on an
	// open scale where 1.0 is a typical vowel. The paper's phoneme
	// selection hinges on these differences: /aa/ and /ao/ are produced
	// with strong larynx vibration, while /s/, /z/ and similar fricatives
	// are inherently weak (Section V-A).
	Intensity float64
	// TiltBoost raises the F2/F3 formant amplitudes of loud pressed
	// vowels (reduced spectral tilt): their sounds "still contain strong
	// high-frequency components after passing the barrier" (Section V-A),
	// which is exactly why /aa/ and /ao/ fail Criterion I.
	TiltBoost float64
	// Duration is the typical duration in seconds.
	Duration float64
	// Appearances is the phoneme's appearance count in common VA voice
	// commands from Table II.
	Appearances int
}

// Voiced reports whether the phoneme has a periodic glottal source.
func (s *Spec) Voiced() bool {
	switch s.Class {
	case ClassVowel, ClassDiphthong, ClassSemivowel, ClassNasal,
		ClassFricativeVoiced, ClassStopVoiced:
		return true
	default:
		return false
	}
}

// inventory lists the 37 common phonemes of Table II. The paper's table
// prints "ch" twice (counts 69 and 13); the second entry is interpreted as
// /eh/, the only frequent English vowel otherwise absent from the table.
//
// Formant values follow the classic Peterson-Barney measurements for adult
// male speakers; consonant noise bands follow standard acoustic-phonetics
// references.
var inventory = []Spec{
	// Vowels.
	{Symbol: "iy", Class: ClassVowel, Formants: [3]float64{270, 2150, 3010}, Intensity: 0.9, Duration: 0.13, Appearances: 65},
	{Symbol: "ih", Class: ClassVowel, Formants: [3]float64{390, 1990, 2550}, Intensity: 0.85, Duration: 0.10, Appearances: 99},
	{Symbol: "eh", Class: ClassVowel, Formants: [3]float64{530, 1840, 2480}, Intensity: 0.9, Duration: 0.11, Appearances: 13},
	{Symbol: "ae", Class: ClassVowel, Formants: [3]float64{660, 1720, 2410}, Intensity: 1.0, Duration: 0.16, Appearances: 39},
	{Symbol: "aa", Class: ClassVowel, Formants: [3]float64{730, 1090, 2440}, TiltBoost: 10.0, Intensity: 2.8, Duration: 0.16, Appearances: 32},
	{Symbol: "ao", Class: ClassVowel, Formants: [3]float64{570, 840, 2410}, TiltBoost: 10.0, Intensity: 2.7, Duration: 0.16, Appearances: 29},
	{Symbol: "ah", Class: ClassVowel, Formants: [3]float64{640, 1190, 2390}, TiltBoost: 0.8, Intensity: 0.95, Duration: 0.09, Appearances: 107},
	{Symbol: "uh", Class: ClassVowel, Formants: [3]float64{440, 1020, 2240}, Intensity: 0.8, Duration: 0.09, Appearances: 6},
	{Symbol: "uw", Class: ClassVowel, Formants: [3]float64{300, 870, 2240}, Intensity: 0.85, Duration: 0.13, Appearances: 31},
	{Symbol: "er", Class: ClassVowel, Formants: [3]float64{490, 1350, 1690}, Intensity: 0.9, Duration: 0.13, Appearances: 58},
	// Diphthongs.
	{Symbol: "ey", Class: ClassDiphthong, Formants: [3]float64{530, 1840, 2480}, FormantsEnd: [3]float64{390, 1990, 2550}, Intensity: 0.95, Duration: 0.16, Appearances: 38},
	{Symbol: "ay", Class: ClassDiphthong, Formants: [3]float64{730, 1090, 2440}, FormantsEnd: [3]float64{390, 1900, 2550}, Intensity: 0.8, Duration: 0.18, Appearances: 36},
	{Symbol: "aw", Class: ClassDiphthong, Formants: [3]float64{730, 1090, 2440}, FormantsEnd: [3]float64{440, 1020, 2240}, Intensity: 0.8, Duration: 0.18, Appearances: 15},
	{Symbol: "ow", Class: ClassDiphthong, Formants: [3]float64{570, 840, 2410}, FormantsEnd: [3]float64{300, 870, 2240}, Intensity: 0.95, Duration: 0.16, Appearances: 17},
	// Semivowels and liquids.
	{Symbol: "w", Class: ClassSemivowel, Formants: [3]float64{300, 610, 2200}, TiltBoost: 2.8, Intensity: 1.3, Duration: 0.08, Appearances: 40},
	{Symbol: "y", Class: ClassSemivowel, Formants: [3]float64{270, 2100, 3000}, TiltBoost: 1.5, Intensity: 0.9, Duration: 0.07, Appearances: 15},
	{Symbol: "r", Class: ClassSemivowel, Formants: [3]float64{310, 1060, 1380}, TiltBoost: 1.5, Intensity: 0.8, Duration: 0.08, Appearances: 100},
	{Symbol: "l", Class: ClassSemivowel, Formants: [3]float64{360, 1300, 2500}, TiltBoost: 0.8, Intensity: 1.0, Duration: 0.07, Appearances: 70},
	// Nasals.
	{Symbol: "m", Class: ClassNasal, Formants: [3]float64{250, 1100, 2100}, Intensity: 0.95, Duration: 0.08, Appearances: 65},
	{Symbol: "n", Class: ClassNasal, Formants: [3]float64{250, 1400, 2300}, Intensity: 1.0, Duration: 0.07, Appearances: 108},
	{Symbol: "ng", Class: ClassNasal, Formants: [3]float64{250, 1600, 2200}, Intensity: 0.75, Duration: 0.08, Appearances: 17},
	// Voiced fricatives.
	{Symbol: "v", Class: ClassFricativeVoiced, Formants: [3]float64{250, 1100, 2300}, NoiseCenter: 3500, NoiseWidth: 2500, Intensity: 0.45, Duration: 0.07, Appearances: 28},
	{Symbol: "dh", Class: ClassFricativeVoiced, Formants: [3]float64{250, 1300, 2500}, NoiseCenter: 4000, NoiseWidth: 3000, Intensity: 0.45, Duration: 0.05, Appearances: 12},
	{Symbol: "z", Class: ClassFricativeVoiced, Formants: [3]float64{250, 1400, 2500}, NoiseCenter: 5500, NoiseWidth: 2500, Intensity: 0.025, Duration: 0.08, Appearances: 49},
	// Unvoiced fricatives.
	{Symbol: "f", Class: ClassFricativeUnvoiced, NoiseCenter: 4000, NoiseWidth: 3500, Intensity: 0.40, Duration: 0.09, Appearances: 29},
	{Symbol: "th", Class: ClassFricativeUnvoiced, NoiseCenter: 4500, NoiseWidth: 3500, Intensity: 0.018, Duration: 0.08, Appearances: 10},
	{Symbol: "s", Class: ClassFricativeUnvoiced, NoiseCenter: 6000, NoiseWidth: 2000, Intensity: 0.02, Duration: 0.10, Appearances: 101},
	{Symbol: "sh", Class: ClassFricativeUnvoiced, NoiseCenter: 3000, NoiseWidth: 1500, Intensity: 0.022, Duration: 0.10, Appearances: 8},
	{Symbol: "hh", Class: ClassAspirate, NoiseCenter: 1500, NoiseWidth: 1400, Intensity: 0.50, Duration: 0.06, Appearances: 20},
	// Voiced stops.
	{Symbol: "b", Class: ClassStopVoiced, Formants: [3]float64{300, 800, 2100}, NoiseCenter: 800, NoiseWidth: 700, Intensity: 0.85, Duration: 0.05, Appearances: 31},
	{Symbol: "d", Class: ClassStopVoiced, Formants: [3]float64{300, 1700, 2600}, NoiseCenter: 3000, NoiseWidth: 2000, Intensity: 0.7, Duration: 0.05, Appearances: 83},
	{Symbol: "g", Class: ClassStopVoiced, Formants: [3]float64{300, 1500, 2200}, NoiseCenter: 2000, NoiseWidth: 1500, Intensity: 0.8, Duration: 0.05, Appearances: 13},
	// Unvoiced stops.
	{Symbol: "p", Class: ClassStopUnvoiced, NoiseCenter: 900, NoiseWidth: 800, Intensity: 0.75, Duration: 0.06, Appearances: 37},
	{Symbol: "t", Class: ClassStopUnvoiced, NoiseCenter: 3500, NoiseWidth: 2500, Intensity: 0.6, Duration: 0.06, Appearances: 129},
	{Symbol: "k", Class: ClassStopUnvoiced, NoiseCenter: 2200, NoiseWidth: 1500, Intensity: 0.6, Duration: 0.06, Appearances: 70},
	// Affricates.
	{Symbol: "ch", Class: ClassAffricate, NoiseCenter: 3600, NoiseWidth: 1400, Intensity: 0.55, Duration: 0.10, Appearances: 69},
	{Symbol: "jh", Class: ClassAffricate, Formants: [3]float64{300, 1700, 2500}, NoiseCenter: 3700, NoiseWidth: 1300, Intensity: 0.55, Duration: 0.09, Appearances: 14},
}

var bySymbol = func() map[string]*Spec {
	m := make(map[string]*Spec, len(inventory))
	for i := range inventory {
		m[inventory[i].Symbol] = &inventory[i]
	}
	return m
}()

// Lookup returns the spec for a phoneme symbol.
func Lookup(symbol string) (*Spec, error) {
	s, ok := bySymbol[symbol]
	if !ok {
		return nil, fmt.Errorf("phoneme: unknown symbol %q", symbol)
	}
	return s, nil
}

// All returns the full 37-phoneme inventory sorted by descending appearance
// count (the order of Table II), then alphabetically.
func All() []Spec {
	out := make([]Spec, len(inventory))
	copy(out, inventory)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Appearances != out[j].Appearances {
			return out[i].Appearances > out[j].Appearances
		}
		return out[i].Symbol < out[j].Symbol
	})
	return out
}

// Symbols returns all phoneme symbols in Table II order.
func Symbols() []string {
	all := All()
	out := make([]string, len(all))
	for i := range all {
		out[i] = all[i].Symbol
	}
	return out
}

// Count returns the inventory size (37).
func Count() int { return len(inventory) }
