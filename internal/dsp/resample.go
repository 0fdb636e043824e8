package dsp

import "fmt"

// Resample converts x from rate fsIn to fsOut using linear interpolation.
// It deliberately applies NO anti-alias filtering: the accelerometer model
// relies on this to reproduce the aliasing of high-frequency audio content
// into the 0-100 Hz vibration band that the paper identifies as a core
// challenge (Section IV-B). Callers who want alias-free decimation should
// low-pass filter first.
func Resample(x []float64, fsIn, fsOut float64) ([]float64, error) {
	if fsIn <= 0 || fsOut <= 0 {
		return nil, fmt.Errorf("resample: rates %v->%v must be positive", fsIn, fsOut)
	}
	if len(x) == 0 {
		return nil, nil
	}
	ratio := fsIn / fsOut
	n := int(float64(len(x)) / ratio)
	if n < 1 {
		n = 1
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		pos := float64(i) * ratio
		lo := int(pos)
		if lo >= len(x)-1 {
			out[i] = x[len(x)-1]
			continue
		}
		frac := pos - float64(lo)
		out[i] = x[lo]*(1-frac) + x[lo+1]*frac
	}
	return out, nil
}
