package attack

import (
	"math"
	"testing"

	"vibguard/internal/device"
	"vibguard/internal/dsp"
	"vibguard/internal/phoneme"
)

func TestKindString(t *testing.T) {
	names := map[Kind]string{
		Random: "random attack", Replay: "replay attack",
		Synthesis: "voice synthesis attack", HiddenVoice: "hidden voice attack",
		SolidChannel: "solid channel attack", BarrierBypass: "barrier bypass attack",
		Adaptive: "adaptive attack",
		Kind(0):  "unknown",
	}
	for k, want := range names {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	if len(Kinds()) != 7 {
		t.Errorf("Kinds() returned %d attacks, want 7", len(Kinds()))
	}
	if len(PaperKinds()) != 4 {
		t.Errorf("PaperKinds() returned %d attacks, want 4", len(PaperKinds()))
	}
}

func TestRandomAttack(t *testing.T) {
	a := NewAttacker(1)
	adversary := phoneme.NewVoicePool(2, 9)[1]
	out, err := a.RandomAttack(adversary, phoneme.Commands()[0])
	if err != nil {
		t.Fatal(err)
	}
	if dsp.RMS(out) == 0 {
		t.Error("silent attack")
	}
	if _, err := a.RandomAttack(adversary, phoneme.Command{Text: "bad", Phonemes: []string{"zz"}}); err == nil {
		t.Error("bad command should error")
	}
}

func TestReplayAttack(t *testing.T) {
	a := NewAttacker(2)
	synth, err := phoneme.NewSynthesizer(phoneme.NewVoicePool(1, 3)[0])
	if err != nil {
		t.Fatal(err)
	}
	utt, err := synth.Synthesize(phoneme.Commands()[1])
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.ReplayAttack(utt.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(utt.Samples) {
		t.Errorf("length changed: %d -> %d", len(utt.Samples), len(out))
	}
	// The replay chain (mic + loudspeaker) must color the signal: deep
	// lows are gone.
	specIn := dsp.PowerSpectrum(utt.Samples)
	specOut := dsp.PowerSpectrum(out)
	lowBin := dsp.FrequencyBin(60, len(out), 16000)
	if specOut[lowBin] > specIn[lowBin] {
		t.Error("replay chain did not attenuate deep lows")
	}
	if _, err := a.ReplayAttack(nil); err == nil {
		t.Error("empty utterance should error")
	}
}

func TestEstimateF0(t *testing.T) {
	for _, want := range []float64{90, 120, 200, 280} {
		x := dsp.Tone(want, 0.5, 1.0, 16000)
		// Add harmonics so it resembles voice.
		x = dsp.Mix(x, dsp.Tone(2*want, 0.25, 1.0, 16000), dsp.Tone(3*want, 0.12, 1.0, 16000))
		got, ok := EstimateF0(x, 16000)
		if !ok {
			t.Errorf("F0 %v: no estimate", want)
			continue
		}
		if math.Abs(got-want) > want*0.05 {
			t.Errorf("F0 estimate = %v, want %v", got, want)
		}
	}
	if _, ok := EstimateF0(make([]float64, 100), 16000); ok {
		t.Error("short signal should not estimate")
	}
	if _, ok := EstimateF0(make([]float64, 16000), 16000); ok {
		t.Error("silence should not estimate")
	}
}

func TestEstimateF0OnSynthesizedVoice(t *testing.T) {
	profile := phoneme.NewVoicePool(1, 3)[0]
	synth, err := phoneme.NewSynthesizer(profile)
	if err != nil {
		t.Fatal(err)
	}
	utt, err := synth.Synthesize(phoneme.Commands()[3])
	if err != nil {
		t.Fatal(err)
	}
	got, ok := EstimateF0(utt.Samples, 16000)
	if !ok {
		t.Fatal("no F0 estimate from synthesized speech")
	}
	if math.Abs(got-profile.F0) > profile.F0*0.25 {
		t.Errorf("estimated F0 %v too far from true %v", got, profile.F0)
	}
}

func TestCloneVoiceTracksVictim(t *testing.T) {
	a := NewAttacker(3)
	for _, victim := range phoneme.NewVoicePool(4, 11) {
		synth, err := phoneme.NewSynthesizer(victim)
		if err != nil {
			t.Fatal(err)
		}
		var samples [][]float64
		for _, cmd := range phoneme.Commands()[:3] {
			utt, err := synth.Synthesize(cmd)
			if err != nil {
				t.Fatal(err)
			}
			samples = append(samples, utt.Samples)
		}
		clone, err := a.CloneVoice(samples)
		if err != nil {
			t.Fatal(err)
		}
		if err := clone.Validate(); err != nil {
			t.Errorf("clone of %s invalid: %v", victim.Name, err)
		}
		if math.Abs(clone.F0-victim.F0) > victim.F0*0.3 {
			t.Errorf("clone F0 %v far from victim %s F0 %v", clone.F0, victim.Name, victim.F0)
		}
		if clone.Sex != victim.Sex {
			t.Errorf("clone sex %v != victim %s sex %v", clone.Sex, victim.Name, victim.Sex)
		}
	}
	if _, err := a.CloneVoice(nil); err == nil {
		t.Error("no samples should error")
	}
}

func TestSynthesisAttack(t *testing.T) {
	a := NewAttacker(4)
	victim := phoneme.NewVoicePool(1, 3)[0]
	synth, err := phoneme.NewSynthesizer(victim)
	if err != nil {
		t.Fatal(err)
	}
	utt, err := synth.Synthesize(phoneme.Commands()[0])
	if err != nil {
		t.Fatal(err)
	}
	out, err := a.SynthesisAttack([][]float64{utt.Samples}, phoneme.Commands()[7])
	if err != nil {
		t.Fatal(err)
	}
	if dsp.RMS(out) == 0 {
		t.Error("silent synthesis attack")
	}
}

func TestHiddenVoiceAttackIsWideband(t *testing.T) {
	a := NewAttacker(5)
	synth, err := phoneme.NewSynthesizer(phoneme.NewVoicePool(1, 3)[0])
	if err != nil {
		t.Fatal(err)
	}
	utt, err := synth.Synthesize(phoneme.Commands()[0])
	if err != nil {
		t.Fatal(err)
	}
	hidden, err := a.HiddenVoiceAttack(utt.Samples)
	if err != nil {
		t.Fatal(err)
	}
	if len(hidden) != len(utt.Samples) {
		t.Errorf("length changed: %d -> %d", len(utt.Samples), len(hidden))
	}
	// Hidden commands occupy 0-6 kHz, much wider than clear speech
	// (Section VII-C/VII-D).
	clearBW := Bandwidth(utt.Samples, 16000, 0.95)
	hiddenBW := Bandwidth(hidden, 16000, 0.95)
	if hiddenBW < clearBW {
		t.Errorf("hidden bandwidth %v not wider than clear %v", hiddenBW, clearBW)
	}
	if hiddenBW < 2500 {
		t.Errorf("hidden bandwidth %v too narrow", hiddenBW)
	}
	// It must be temporally modulated like the command (shares envelope),
	// not steady noise: frame energies vary.
	var energies []float64
	for start := 0; start+1600 <= len(hidden); start += 1600 {
		energies = append(energies, dsp.Energy(hidden[start:start+1600]))
	}
	maxE, minE := energies[0], energies[0]
	for _, e := range energies {
		if e > maxE {
			maxE = e
		}
		if e < minE {
			minE = e
		}
	}
	if maxE < 3*minE {
		t.Error("hidden attack has no temporal modulation")
	}
	if _, err := a.HiddenVoiceAttack(nil); err == nil {
		t.Error("empty command should error")
	}
}

func TestBandwidth(t *testing.T) {
	low := dsp.Tone(200, 1, 0.5, 16000)
	if bw := Bandwidth(low, 16000, 0.95); bw > 400 {
		t.Errorf("pure 200Hz tone bandwidth = %v", bw)
	}
	if bw := Bandwidth(nil, 16000, 0.95); bw != 0 {
		t.Errorf("empty bandwidth = %v", bw)
	}
	if bw := Bandwidth(make([]float64, 100), 16000, 0.95); bw != 0 {
		t.Errorf("silent bandwidth = %v", bw)
	}
}

func TestAttackerLoudspeakerProfile(t *testing.T) {
	a := NewAttacker(6)
	if a.Loudspeaker.SampleRate != 16000 {
		t.Error("loudspeaker rate")
	}
	if err := a.Loudspeaker.Validate(); err != nil {
		t.Error(err)
	}
	_ = device.NewLoudspeaker // package linkage sanity
}
