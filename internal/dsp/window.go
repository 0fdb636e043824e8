package dsp

import (
	"math"
	"sync"
)

// WindowKind selects a window function for short-time analysis.
type WindowKind int

// Supported analysis windows.
const (
	WindowHann WindowKind = iota + 1
	WindowHamming
	WindowRect
	WindowBlackman
)

// String returns the human-readable window name.
func (w WindowKind) String() string {
	switch w {
	case WindowHann:
		return "hann"
	case WindowHamming:
		return "hamming"
	case WindowRect:
		return "rect"
	case WindowBlackman:
		return "blackman"
	default:
		return "unknown"
	}
}

// Window returns the n-point window of the given kind. Periodic form is
// used (denominator n), which is the conventional choice for STFT.
func Window(kind WindowKind, n int) []float64 {
	if n <= 0 {
		return nil
	}
	w := make([]float64, n)
	switch kind {
	case WindowHamming:
		for i := range w {
			w[i] = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(n))
		}
	case WindowRect:
		for i := range w {
			w[i] = 1
		}
	case WindowBlackman:
		for i := range w {
			t := 2 * math.Pi * float64(i) / float64(n)
			w[i] = 0.42 - 0.5*math.Cos(t) + 0.08*math.Cos(2*t)
		}
	default: // Hann
		for i := range w {
			w[i] = 0.5 * (1 - math.Cos(2*math.Pi*float64(i)/float64(n)))
		}
	}
	return w
}

// windowCache holds one immutable window per (kind, length) pair so hot
// loops like STFT never rebuild them. Entries are never mutated after
// insertion, making the cache safe for concurrent readers.
var windowCache sync.Map

type windowKey struct {
	kind WindowKind
	n    int
}

// cachedWindow returns the shared n-point window of the given kind. The
// returned slice is cached and MUST NOT be modified; external callers who
// may mutate the window should use Window, which always returns a fresh
// copy.
func cachedWindow(kind WindowKind, n int) []float64 {
	key := windowKey{kind, n}
	if v, ok := windowCache.Load(key); ok {
		return v.([]float64)
	}
	v, _ := windowCache.LoadOrStore(key, Window(kind, n))
	return v.([]float64)
}
