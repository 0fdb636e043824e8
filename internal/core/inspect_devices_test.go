package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"vibguard/internal/acoustics"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/phoneme"
	"vibguard/internal/segment"
	"vibguard/internal/selection"
	"vibguard/internal/syncnet"
)

// deviceSession is one voice command heard by a VA device and by up to
// three wearables at different distances and network delays.
type deviceSession struct {
	name  string
	spans []segment.Span
	va    []float64
	wears [][]float64
}

// deviceCorpus generates a legitimate and a thru-barrier attack session
// per command, each with three wearable recordings.
func deviceCorpus(t *testing.T, seed int64, commands int) []deviceSession {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	synth, err := phoneme.NewSynthesizer(phoneme.NewStudioVoicePool(1, seed)[0])
	if err != nil {
		t.Fatal(err)
	}
	room, err := acoustics.RoomByName("B")
	if err != nil {
		t.Fatal(err)
	}
	var out []deviceSession
	for c := 0; c < commands; c++ {
		cmd := phoneme.Commands()[c]
		utt, err := synth.Synthesize(cmd)
		if err != nil {
			t.Fatal(err)
		}
		spans := segment.OracleSpans(utt, selection.CanonicalSelected())
		transmit := func(spl, dist float64, barrier bool) []float64 {
			p, err := room.Transmit(utt.Samples, acoustics.PathConfig{
				SourceSPL: spl, DistanceM: dist, ThroughBarrier: barrier, SampleRate: 16000,
			}, rng)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		for _, attack := range []bool{false, true} {
			s := deviceSession{name: cmd.Text, spans: spans}
			spl, vaDist := 72.0, 1.5
			if attack {
				s.name += " (attack)"
				spl, vaDist = 80, 2.1
			}
			s.va = transmit(spl, vaDist, attack)
			for k, dist := range []float64{0.3, 0.6, 1.0} {
				wearDist := dist
				if attack {
					wearDist = 2.4 + dist
				}
				s.wears = append(s.wears, syncnet.SimulateNetworkDelay(
					transmit(spl, wearDist, attack), 0.05+0.03*float64(k), 16000, rng))
			}
			out = append(out, s)
		}
	}
	return out
}

// counterSnapshot reads the inspection counters.
type counterSnapshot struct{ total, errs, attack, accept uint64 }

func readCounters() counterSnapshot {
	return counterSnapshot{metInspectTotal.Value(), metInspectErrors.Value(),
		metVerdictAttack.Value(), metVerdictAccept.Value()}
}

func (a counterSnapshot) since(b counterSnapshot) counterSnapshot {
	return counterSnapshot{a.total - b.total, a.errs - b.errs, a.attack - b.attack, a.accept - b.accept}
}

// sentinels are the typed errors whose errors.Is answers the pin compares.
var sentinels = []error{ErrEmptyRecording, ErrNonFiniteRecording, ErrRecordingTooShort,
	ErrLengthMismatch, syncnet.ErrNoOverlap, detector.ErrNonFiniteScore, errSegmenterDown}

var errSegmenterDown = errors.New("segmenter down")

// failingSegmenter always fails.
type failingSegmenter struct{}

func (failingSegmenter) EffectiveSpans([]float64) ([]segment.Span, error) {
	return nil, errSegmenterDown
}

// checkDevicesBitIdentical runs InspectDevices on wears and then one
// Inspect per wearable with fresh rngs of the same seeds, and compares
// every verdict bit for bit, every error by errors.Is and text, the
// counter deltas, each rng's next draw, and the goroutine count.
func checkDevicesBitIdentical(t *testing.T, d *Defense, va []float64, wears [][]float64) {
	t.Helper()
	rngs := func() []*rand.Rand {
		r := make([]*rand.Rand, len(wears))
		for i := range r {
			r[i] = rand.New(rand.NewSource(int64(100 + i)))
		}
		return r
	}
	base := runtime.NumGoroutine()
	before := readCounters()
	together := rngs()
	verdicts, errs := d.InspectDevices(va, wears, together)
	gotCounts := readCounters().since(before)
	waitGoroutines(t, base)

	before = readCounters()
	alone := rngs()
	for i, wear := range wears {
		want, wantErr := d.Inspect(va, wear, alone[i])
		got, err := verdicts[i], errs[i]
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("device %d: error %v, alone %v", i, err, wantErr)
		}
		if err != nil {
			if err.Error() != wantErr.Error() {
				t.Errorf("device %d: error %q, alone %q", i, err, wantErr)
			}
			for _, s := range sentinels {
				if errors.Is(err, s) != errors.Is(wantErr, s) {
					t.Errorf("device %d: errors.Is(%v, %v) differs from alone", i, err, s)
				}
			}
			if got != nil {
				t.Errorf("device %d: verdict %+v beside error %v", i, got, err)
			}
		} else if math.Float64bits(got.Score) != math.Float64bits(want.Score) || got.Attack != want.Attack ||
			got.SyncOffset != want.SyncOffset || !reflect.DeepEqual(got.Spans, want.Spans) ||
			got.Early != want.Early || got.Consumed != want.Consumed {
			t.Errorf("device %d: verdict %+v, alone %+v", i, got, want)
		}
		if g, w := together[i].Int63(), alone[i].Int63(); g != w {
			t.Errorf("device %d: rng next draw %d, alone %d", i, g, w)
		}
	}
	if wantCounts := readCounters().since(before); gotCounts != wantCounts {
		t.Errorf("counters moved by %+v, alone by %+v", gotCounts, wantCounts)
	}
}

// TestInspectDevicesBitIdenticalToInspect pins InspectDevices with one,
// two and three wearables against one Inspect per wearable over a legit
// and attack corpus, for the paper's method and both baselines.
func TestInspectDevicesBitIdenticalToInspect(t *testing.T) {
	corpus := deviceCorpus(t, 31, 3)
	for _, method := range []detector.Method{detector.MethodFull, detector.MethodVibration, detector.MethodAudio} {
		for _, s := range corpus {
			cfg := DefaultConfig(device.NewFossilGen5(), &detector.StaticSegmenter{Spans: s.spans})
			cfg.Method = method
			d, err := NewDefense(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for k := 1; k <= len(s.wears); k++ {
				t.Run(method.String()+"/"+s.name+"/"+string(rune('0'+k)), func(t *testing.T) {
					checkDevicesBitIdentical(t, d, s.va, s.wears[:k])
				})
			}
		}
	}
}

// TestInspectDevicesFailuresBitIdentical pins the failing devices: a
// wearable that fails validation or alignment gets the error Inspect gives
// it alone while the others are scored, an invalid VA recording fails
// every wearable with the same typed error, and a failing or missing
// segmenter fails every wearable that aligned.
func TestInspectDevicesFailuresBitIdentical(t *testing.T) {
	s := deviceCorpus(t, 37, 1)[0]
	short := s.wears[1][:10]
	nonFinite := append([]float64(nil), s.wears[2]...)
	nonFinite[500] = math.NaN()
	// failSecond fails the alignment of the recording that starts with
	// the second wearable's first sample.
	failSecond := func(va, wear []float64, lag, rate float64) ([]float64, int, error) {
		if len(wear) > 0 && math.Float64bits(wear[0]) == math.Float64bits(s.wears[1][0]) {
			return nil, 0, syncnet.ErrNoOverlap
		}
		return syncnet.AlignRecordings(va, wear, lag, rate)
	}
	static := &detector.StaticSegmenter{Spans: s.spans}
	cases := []struct {
		name  string
		seg   detector.Segmenter
		align func([]float64, []float64, float64, float64) ([]float64, int, error)
		va    []float64
		wears [][]float64
	}{
		{name: "one wearable too short", seg: static, wears: [][]float64{s.wears[0], short, s.wears[2]}},
		{name: "one wearable non-finite", seg: static, wears: [][]float64{nonFinite, s.wears[0]}},
		{name: "every wearable invalid", seg: static, wears: [][]float64{short, nil}},
		{name: "invalid VA recording", seg: static, va: s.va[:10], wears: s.wears},
		{name: "one alignment fails", seg: static, align: failSecond, wears: s.wears},
		{name: "alignment and validation fail", seg: &slowSegmenter{err: errSegmenterDown}, align: failSecond,
			wears: [][]float64{short, s.wears[1], s.wears[0]}},
		{name: "segmenter fails", seg: failingSegmenter{}, wears: s.wears},
		{name: "nil segmenter", seg: nil, wears: s.wears},
		{name: "no wearables", seg: static, wears: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d, err := NewDefense(DefaultConfig(device.NewFossilGen5(), tc.seg))
			if err != nil {
				t.Fatal(err)
			}
			if tc.align != nil {
				d.align = tc.align
			}
			va := s.va
			if tc.va != nil {
				va = tc.va
			}
			checkDevicesBitIdentical(t, d, va, tc.wears)
		})
	}
}

// TestInspectDevicesSegmentsOnce pins the shared work: a session of three
// wearables runs the segmenter once, and not at all when no wearable
// validates.
func TestInspectDevicesSegmentsOnce(t *testing.T) {
	s := deviceCorpus(t, 41, 1)[0]
	seg := &countingSegmenter{spans: s.spans}
	d, err := NewDefense(DefaultConfig(device.NewFossilGen5(), seg))
	if err != nil {
		t.Fatal(err)
	}
	rngs := []*rand.Rand{rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2)), rand.New(rand.NewSource(3))}
	if _, errs := d.InspectDevices(s.va, s.wears, rngs); errors.Join(errs...) != nil {
		t.Fatal(errors.Join(errs...))
	}
	if seg.calls != 1 {
		t.Errorf("three wearables ran the segmenter %d times, want 1", seg.calls)
	}
	seg.calls = 0
	d.InspectDevices(s.va, [][]float64{nil, s.wears[0][:5]}, rngs[:2])
	if seg.calls != 0 {
		t.Errorf("no valid wearable, yet the segmenter ran %d times", seg.calls)
	}
}
