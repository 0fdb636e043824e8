package core_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"vibguard/internal/attack"
	"vibguard/internal/core"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/eval"
	"vibguard/internal/selection"
)

// streamSamples builds one legitimate session plus one of each attack kind
// from the golden evaluation generator at the given seed, with the
// ground-truth oracle spans each sample's defense will use.
func streamSamples(t *testing.T, seed int64) []*eval.Sample {
	t.Helper()
	g, err := eval.NewGenerator(3, seed)
	if err != nil {
		t.Fatal(err)
	}
	cond := eval.DefaultCondition()
	var samples []*eval.Sample
	legit, err := g.Legit(0, 0, cond)
	if err != nil {
		t.Fatal(err)
	}
	samples = append(samples, legit)
	legit2, err := g.Legit(1, 1, cond)
	if err != nil {
		t.Fatal(err)
	}
	samples = append(samples, legit2)
	for _, kind := range attack.Kinds() {
		s, err := g.Attack(kind, 0, 1, cond)
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, s)
	}
	return samples
}

// sampleDefense builds the sample's defense around its oracle spans.
func sampleDefense(t *testing.T, s *eval.Sample) *core.Defense {
	t.Helper()
	provider := &eval.OracleProvider{Selected: selection.CanonicalSelected()}
	spans, err := provider.SpansFor(s)
	if err != nil {
		t.Fatal(err)
	}
	clone := *device.NewFossilGen5()
	d, err := core.NewDefense(core.DefaultConfig(&clone, &detector.StaticSegmenter{Spans: spans}))
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// label names a sample in failure messages.
func label(s *eval.Sample) string {
	if !s.IsAttack {
		return "legit"
	}
	return s.AttackKind.String()
}

// feedStream pushes a recording through a StreamInspector in chunkSamples
// slices and finishes, returning the verdict.
func feedStream(t *testing.T, si *core.StreamInspector, va []float64, chunkSamples int) *core.Verdict {
	t.Helper()
	for lo := 0; lo < len(va); lo += chunkSamples {
		hi := lo + chunkSamples
		if hi > len(va) {
			hi = len(va)
		}
		v, err := si.Feed(va[lo:hi])
		if err != nil {
			t.Fatal(err)
		}
		if v != nil {
			break
		}
	}
	v, err := si.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestStreamInspectorMatchesBatchBitExact is the determinism contract of
// the streaming pipeline: with early exit disabled, streaming a recording
// chunk by chunk and finishing returns math.Float64bits-identical scores
// (and identical verdicts, offsets, and spans) to Defense.Inspect on the
// concatenated audio — for a legitimate session and all four attack
// kinds, at several chunk sizes.
func TestStreamInspectorMatchesBatchBitExact(t *testing.T) {
	const seed = 1234
	for _, s := range streamSamples(t, 77) {
		d := sampleDefense(t, s)
		want, err := d.Inspect(s.VARec, s.WearRec, rand.New(rand.NewSource(seed)))
		if err != nil {
			t.Fatalf("%s: batch: %v", label(s), err)
		}
		for _, chunk := range []int{1600, 701, len(s.VARec)} {
			si, err := d.NewStreamInspector(core.StreamConfig{DisableEarlyExit: true}, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := si.FeedWearable(s.WearRec); err != nil {
				t.Fatal(err)
			}
			got := feedStream(t, si, s.VARec, chunk)
			if got.Early {
				t.Fatalf("%s chunk %d: early verdict with early exit disabled", label(s), chunk)
			}
			if math.Float64bits(got.Score) != math.Float64bits(want.Score) {
				t.Errorf("%s chunk %d: streamed score %v != batch score %v",
					label(s), chunk, got.Score, want.Score)
			}
			if got.Attack != want.Attack || got.SyncOffset != want.SyncOffset {
				t.Errorf("%s chunk %d: streamed verdict (attack %v, tau %d) != batch (attack %v, tau %d)",
					label(s), chunk, got.Attack, got.SyncOffset, want.Attack, want.SyncOffset)
			}
			if len(got.Spans) != len(want.Spans) {
				t.Errorf("%s chunk %d: %d spans != batch %d", label(s), chunk, len(got.Spans), len(want.Spans))
			}
			if got.Consumed != len(s.VARec) {
				t.Errorf("%s chunk %d: consumed %d of %d samples", label(s), chunk, got.Consumed, len(s.VARec))
			}
		}
	}
}

var updateGolden = flag.Bool("update-golden", false,
	"rewrite testdata/stream_early_exit.json from the current streamed sessions")

const earlyExitGoldenPath = "testdata/stream_early_exit.json"

// earlyExitSession is one streamed session's outcome in the early-exit
// golden: where the stream stopped and with which score, bit for bit.
type earlyExitSession struct {
	Session    string  `json:"session"`
	Early      bool    `json:"early"`
	Consumed   int     `json:"consumed"`
	SyncOffset int     `json:"sync_offset"`
	Score      float64 `json:"score"`
	ScoreBits  string  `json:"score_bits"`
}

// TestStreamInspectorEarlyExitSoundness is the early-exit soundness table:
// across the golden corpus seeds, every streamed session with early exit
// enabled must reach the same attack/legit verdict as the batch pipeline —
// zero flips — and the early exit must actually fire on a healthy share of
// sessions (otherwise the mechanism is dead weight and the test is
// vacuous). Each session's exit point, offset and score bits must also
// equal testdata/stream_early_exit.json, so a change to the gate, the
// evaluation schedule or the interval shows as a moved exit. Regenerate
// deliberately with
//
//	go test ./internal/core/ -run TestStreamInspectorEarlyExitSoundness -update-golden
func TestStreamInspectorEarlyExitSoundness(t *testing.T) {
	const seed = 5150
	const chunk = 1600 // 100 ms of 16 kHz audio
	sessions, early, flips := 0, 0, 0
	var got []earlyExitSession
	for _, corpusSeed := range []int64{77, 78, 1379} {
		for i, s := range streamSamples(t, corpusSeed) {
			d := sampleDefense(t, s)
			want, err := d.Inspect(s.VARec, s.WearRec, rand.New(rand.NewSource(seed)))
			if err != nil {
				t.Fatalf("seed %d %s: batch: %v", corpusSeed, label(s), err)
			}
			si, err := d.NewStreamInspector(core.StreamConfig{}, seed)
			if err != nil {
				t.Fatal(err)
			}
			if err := si.FeedWearable(s.WearRec); err != nil {
				t.Fatal(err)
			}
			v := feedStream(t, si, s.VARec, chunk)
			got = append(got, earlyExitSession{
				Session:    fmt.Sprintf("%d/%d/%s", corpusSeed, i, label(s)),
				Early:      v.Early,
				Consumed:   v.Consumed,
				SyncOffset: v.SyncOffset,
				Score:      v.Score,
				ScoreBits:  fmt.Sprintf("%016x", math.Float64bits(v.Score)),
			})
			sessions++
			if v.Early {
				early++
				if v.Consumed >= len(s.VARec) {
					t.Errorf("seed %d %s: early verdict consumed the whole recording (%d samples)",
						corpusSeed, label(s), v.Consumed)
				}
			}
			if v.Attack != want.Attack {
				flips++
				t.Errorf("seed %d %s: streamed verdict attack=%v (score %v, early %v) flips batch attack=%v (score %v)",
					corpusSeed, label(s), v.Attack, v.Score, v.Early, want.Attack, want.Score)
			}
		}
	}
	checkEarlyExitGolden(t, got)
	if flips != 0 {
		t.Fatalf("%d verdict flips in %d sessions", flips, sessions)
	}
	if early == 0 {
		t.Fatalf("early exit never fired in %d sessions", sessions)
	}
	t.Logf("early exits: %d of %d sessions, zero flips", early, sessions)
}

// checkEarlyExitGolden compares the streamed sessions with the golden file,
// or rewrites it under -update-golden.
func checkEarlyExitGolden(t *testing.T, got []earlyExitSession) {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(earlyExitGoldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", earlyExitGoldenPath)
		return
	}
	data, err := os.ReadFile(earlyExitGoldenPath)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	var want []earlyExitSession
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d streamed sessions, golden file has %d", len(got), len(want))
	}
	for i, w := range want {
		if g := got[i]; g != w {
			t.Errorf("session %d: got %+v, want %+v", i, g, w)
		}
	}
}

// TestStreamInspectorLifecycle pins the state machine: feeding after
// Finish errors, Finish after an early verdict returns it unchanged, and
// Feed after a verdict is a no-op returning the cached verdict.
func TestStreamInspectorLifecycle(t *testing.T) {
	s := streamSamples(t, 77)[0]
	d := sampleDefense(t, s)
	si, err := d.NewStreamInspector(core.StreamConfig{DisableEarlyExit: true}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := si.FeedWearable(s.WearRec); err != nil {
		t.Fatal(err)
	}
	if _, err := si.Feed(s.VARec); err != nil {
		t.Fatal(err)
	}
	v, err := si.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if v == nil || v.Early {
		t.Fatalf("fallback verdict = %+v, want a non-early verdict", v)
	}
	if _, err := si.Feed([]float64{0}); err == nil {
		t.Fatal("Feed after Finish did not error")
	}
	if err := si.FeedWearable([]float64{0}); err == nil {
		t.Fatal("FeedWearable after Finish did not error")
	}
}
