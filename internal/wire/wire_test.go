package wire

import (
	"errors"
	"math"
	"testing"
)

// TestSamplesRoundTrip pins the shared sample block: values travel as
// exact float64 bits (NaN payloads and signed zeros included), the
// remainder is returned untouched, and a count larger than the bytes
// present fails typed before anything is allocated from it.
func TestSamplesRoundTrip(t *testing.T) {
	in := []float64{0.5, math.Copysign(0, -1), math.Inf(-1), math.Float64frombits(0x7ff8000000000123), 1e-300}
	p := append(AppendSamples(nil, in), 0xAB)
	out, rest, err := TakeSamples(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d samples, want %d", len(out), len(in))
	}
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Errorf("sample %d: bits %x, want %x", i, math.Float64bits(out[i]), math.Float64bits(in[i]))
		}
	}
	if len(rest) != 1 || rest[0] != 0xAB {
		t.Errorf("remainder %x, want ab", rest)
	}
	if out, _, err := TakeSamples(AppendSamples(nil, nil)); err != nil || out != nil {
		t.Errorf("empty block: %v, %v; want nil, nil", out, err)
	}
	for _, bad := range [][]byte{
		nil,
		{0x02, 0, 0, 0, 0, 0, 0, 0, 0}, // two samples, one present
		{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10}, // 2^60 samples
	} {
		if _, _, err := TakeSamples(bad); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("TakeSamples(%x) err = %v, want ErrMalformedFrame", bad, err)
		}
	}
}
