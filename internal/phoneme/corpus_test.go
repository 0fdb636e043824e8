package phoneme

import (
	"testing"

	"vibguard/internal/dsp"
)

func TestCommandsValid(t *testing.T) {
	cmds := Commands()
	if len(cmds) != 20 {
		t.Fatalf("corpus has %d commands, want 20", len(cmds))
	}
	seen := make(map[string]bool, len(cmds))
	for _, c := range cmds {
		if err := c.Validate(); err != nil {
			t.Errorf("%v", err)
		}
		if seen[c.Text] {
			t.Errorf("duplicate command %q", c.Text)
		}
		seen[c.Text] = true
	}
}

func TestWakeWordsValid(t *testing.T) {
	ww := WakeWords()
	if len(ww) != 3 {
		t.Fatalf("wake words = %d, want 3", len(ww))
	}
	for _, c := range ww {
		if err := c.Validate(); err != nil {
			t.Errorf("%v", err)
		}
	}
}

func TestCommandValidateErrors(t *testing.T) {
	empty := Command{Text: "x"}
	if err := empty.Validate(); err == nil {
		t.Error("empty transcription should error")
	}
	bad := Command{Text: "x", Phonemes: []string{"nope"}}
	if err := bad.Validate(); err == nil {
		t.Error("unknown phoneme should error")
	}
	pauseOnly := Command{Text: "x", Phonemes: []string{Pause, "ae"}}
	if err := pauseOnly.Validate(); err != nil {
		t.Errorf("pause marker rejected: %v", err)
	}
}

func TestSplit(t *testing.T) {
	got := split("t er n", "aa n")
	want := []string{"t", "er", "n", Pause, "aa", "n"}
	if len(got) != len(want) {
		t.Fatalf("split = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("split[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestSynthesizeCommand(t *testing.T) {
	s, err := NewSynthesizer(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	cmd := Commands()[0] // "turn on the lights"
	utt, err := s.Synthesize(cmd)
	if err != nil {
		t.Fatal(err)
	}
	if utt.Speaker != "T01" {
		t.Errorf("speaker = %q", utt.Speaker)
	}
	if utt.SampleRate() != SampleRate {
		t.Errorf("rate = %v", utt.SampleRate())
	}
	// Alignment covers exactly the non-pause phonemes, in order, within
	// bounds, non-overlapping.
	nonPause := 0
	for _, p := range cmd.Phonemes {
		if p != Pause {
			nonPause++
		}
	}
	if len(utt.Alignment) != nonPause {
		t.Fatalf("alignment has %d segments, want %d", len(utt.Alignment), nonPause)
	}
	prevEnd := 0
	for i, seg := range utt.Alignment {
		if seg.Start < prevEnd {
			t.Errorf("segment %d overlaps previous", i)
		}
		if seg.End <= seg.Start {
			t.Errorf("segment %d empty", i)
		}
		if seg.End > len(utt.Samples) {
			t.Errorf("segment %d out of bounds", i)
		}
		if seg.Duration() != seg.End-seg.Start {
			t.Errorf("segment %d Duration mismatch", i)
		}
		prevEnd = seg.End
	}
	// Utterance long enough to be a plausible command (> 0.5s).
	if len(utt.Samples) < int(0.5*SampleRate) {
		t.Errorf("utterance only %d samples", len(utt.Samples))
	}
	if dsp.RMS(utt.Samples) <= 0 {
		t.Error("silent utterance")
	}
}

func TestSynthesizeCommandErrors(t *testing.T) {
	s, err := NewSynthesizer(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Synthesize(Command{Text: "bad", Phonemes: []string{"zzz"}}); err == nil {
		t.Error("bad command should error")
	}
}

func TestAllCommandsSynthesize(t *testing.T) {
	s, err := NewSynthesizer(testProfile())
	if err != nil {
		t.Fatal(err)
	}
	for _, cmd := range append(Commands(), WakeWords()...) {
		utt, err := s.Synthesize(cmd)
		if err != nil {
			t.Errorf("%q: %v", cmd.Text, err)
			continue
		}
		if len(utt.Samples) == 0 {
			t.Errorf("%q: empty", cmd.Text)
		}
	}
}
