package wire

import (
	"encoding/binary"
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

// TestAppendSamplesAllocatesOnce pins AppendSamples' single growth: a
// replay segment's worth of samples (45,040) into a nil slice allocates
// exactly once, and the bytes are the count followed by each sample.
func TestAppendSamplesAllocatesOnce(t *testing.T) {
	samples := make([]float64, 45040)
	for i := range samples {
		samples[i] = float64(i) - 0.5
	}
	if allocs := testing.AllocsPerRun(10, func() { AppendSamples(nil, samples) }); allocs != 1 {
		t.Fatalf("AppendSamples allocated %v times, want 1", allocs)
	}
	p := AppendSamples(nil, samples)
	count, n, err := UvarintAt(p, 0)
	if err != nil || count != uint64(len(samples)) || len(p) != n+8*len(samples) {
		t.Fatalf("count %d (%v) in %d bytes, want %d samples in %d bytes", count, err, len(p), len(samples), n+8*len(samples))
	}
	for i, s := range samples {
		if got := math.Float64frombits(binary.LittleEndian.Uint64(p[n+8*i:])); got != s {
			t.Fatalf("sample %d: %v, want %v", i, got, s)
		}
	}
}

// TestSampleBlockCopyMatchesPerSampleLoop pins the whole-block copy of a
// little-endian host against the per-sample loop every other host runs:
// the same bytes out, the same bits back.
func TestSampleBlockCopyMatchesPerSampleLoop(t *testing.T) {
	in := []float64{0.5, math.Copysign(0, -1), math.Inf(-1), math.Float64frombits(0x7ff8000000000123), 1e-300, -3}
	defer func(le bool) { littleEndian = le }(littleEndian)
	littleEndian = false
	loopBytes := AppendSamples([]byte{7}, in)
	loopOut, _, err := TakeSamples(loopBytes[1:])
	if err != nil {
		t.Fatal(err)
	}
	littleEndian = binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	if !littleEndian {
		t.Skip("big-endian host: the per-sample loop is the only path")
	}
	if got := AppendSamples([]byte{7}, in); string(got) != string(loopBytes) {
		t.Fatalf("block copy encodes % x, per-sample loop % x", got, loopBytes)
	}
	out, _, err := TakeSamples(loopBytes[1:])
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if math.Float64bits(out[i]) != math.Float64bits(loopOut[i]) || math.Float64bits(out[i]) != math.Float64bits(in[i]) {
			t.Errorf("sample %d: block copy %#x, loop %#x, sent %#x", i,
				math.Float64bits(out[i]), math.Float64bits(loopOut[i]), math.Float64bits(in[i]))
		}
	}
}
