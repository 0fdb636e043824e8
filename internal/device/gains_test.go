package device

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"vibguard/internal/dsp"
)

// renderOracle is Loudspeaker.Render as it was before the cached gain
// tables: the response called per bin through dsp.FrequencyShape.
func renderOracle(s *Loudspeaker, x []float64) []float64 {
	shaped := dsp.FrequencyShape(x, s.SampleRate, func(f float64) float64 {
		switch {
		case f < s.LowCutHz:
			return math.Pow(f/s.LowCutHz, 2)
		case f > s.HighCutHz:
			r := 1 - (f-s.HighCutHz)/(s.SampleRate/2-s.HighCutHz)
			if r < 0 {
				return 0
			}
			return r
		default:
			return 1
		}
	})
	peak := dsp.MaxAbs(shaped)
	if peak == 0 {
		clear(shaped)
		return shaped
	}
	for i, v := range shaped {
		u := v / peak
		shaped[i] = s.Gain * peak * (u - s.Distortion*u*u*u)
	}
	return shaped
}

// conductOracle is the coupling and decimation of a drive as they were
// before the cached gain tables, through dsp.ShapeDecimate.
func conductOracle(a *Accelerometer, audio []float64, audioRate float64) (vib []float64, rho float64) {
	coupling := func(f float64) float64 {
		switch {
		case f < 800:
			r := f / 800
			return a.CouplingLow * r * r
		case f < 1600:
			return a.CouplingLow + (a.CouplingHigh-a.CouplingLow)*((f-800)/800)
		default:
			return a.CouplingHigh
		}
	}
	factor := max(int(audioRate/a.SampleRate), 1)
	vib, low, total := dsp.ShapeDecimate(audio, audioRate, coupling, factor, lowFreqCutoff)
	if math.IsInf(total, 1) {
		_, low, total = dsp.ShapeDecimate(dsp.Scale(audio, 1/dsp.MaxAbs(audio)), audioRate, coupling, factor, lowFreqCutoff)
	}
	if total > 0 {
		rho = min(low/total, 1)
	}
	return vib, rho
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// gainLengths put the replay's signals on more transform lengths than the
// gain-table cache holds, so concurrent replays evict each other's tables.
var gainLengths = []int{1, 5, 63, 64, 200, 700, 1500, 3000, 6000, 12000, 16000, 24000, 33000, 45040, 59000, 70000}

// replayCase is one render and drive with the outputs of their oracles.
type replayCase struct {
	s         Loudspeaker
	x         []float64
	render    []float64
	vib       []float64
	rho       float64
	audioRate float64
	accel     Accelerometer
	name      string
}

func replayCases() []replayCase {
	var cases []replayCase
	for i, n := range gainLengths {
		s, a := NewWearableSpeaker(16000), NewAccelerometer()
		if i%2 == 1 {
			s, a.CouplingLow = NewLoudspeaker(16000), 0.07
		}
		x := dsp.Tone(180+float64(37*i), 0.6, float64(n)/16000, 16000)[:n]
		vib, rho := conductOracle(&a, x, 16000)
		cases = append(cases, replayCase{s: s, x: x, render: renderOracle(&s, x), vib: vib, rho: rho,
			audioRate: 16000, accel: a, name: fmt.Sprintf("n=%d", n)})
	}
	return cases
}

func (c *replayCase) check() error {
	got, err := c.s.Render(c.x)
	if err != nil {
		return err
	}
	if !sameBits(got, c.render) {
		return fmt.Errorf("%s: Render differs from its oracle", c.name)
	}
	vib, rho := c.accel.conductOf(c.x, c.audioRate)
	if !sameBits(vib, c.vib) || math.Float64bits(rho) != math.Float64bits(c.rho) {
		return fmt.Errorf("%s: conduction differs from its oracle (rho %v, want %v)", c.name, rho, c.rho)
	}
	return nil
}

// Render and the drive's conduction on cached gain tables carry the bits
// of the per-bin response at every length, cold and warm.
func TestReplayGainTablesBitIdentical(t *testing.T) {
	cases := replayCases()
	for pass := 0; pass < 2; pass++ {
		for i := range cases {
			if err := cases[i].check(); err != nil {
				t.Fatalf("pass %d: %v", pass, err)
			}
		}
	}
	if n := len(gainTables.m); n > gainTablesMax {
		t.Fatalf("gain-table cache holds %d tables, bound %d", n, gainTablesMax)
	}
}

// Concurrent renders and drives of different lengths and devices fill and
// evict the shared gain-table cache; under the race detector (make
// race-brnn) this is its data-race check, and every output must still
// carry its oracle's bits.
func TestReplayGainTablesConcurrent(t *testing.T) {
	cases := replayCases()
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 3*len(cases); k++ {
				c := &cases[(g*5+k*(g+1))%len(cases)]
				if err := c.check(); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// Every speaker and microphone field must be finite: each other check is
// a comparison, which NaN passes, and a NaN field would render NaN
// samples with no error (and miss the gain-table cache on every call).
func TestSpeakerAndMicRejectNonFinite(t *testing.T) {
	s := NewLoudspeaker(16000)
	speakerFields := map[string]*float64{"SampleRate": &s.SampleRate, "LowCutHz": &s.LowCutHz,
		"HighCutHz": &s.HighCutHz, "Distortion": &s.Distortion, "Gain": &s.Gain}
	m := NewMicrophone(16000)
	micFields := map[string]*float64{"SampleRate": &m.SampleRate, "Gain": &m.Gain,
		"NoiseFloorSPL": &m.NoiseFloorSPL, "LowCutHz": &m.LowCutHz, "HighCutHz": &m.HighCutHz}
	x := dsp.Tone(440, 0.5, 0.05, 16000)
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for name, f := range speakerFields {
			old := *f
			*f = v
			if err := s.Validate(); err == nil {
				t.Errorf("speaker %s = %v validates", name, v)
			}
			if _, err := s.Render(x); err == nil {
				t.Errorf("speaker %s = %v renders", name, v)
			}
			*f = old
		}
		for name, f := range micFields {
			old := *f
			*f = v
			if err := m.Validate(); err == nil {
				t.Errorf("mic %s = %v validates", name, v)
			}
			*f = old
		}
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("restored speaker: %v", err)
	}
	if err := m.Validate(); err != nil {
		t.Fatalf("restored mic: %v", err)
	}
}
