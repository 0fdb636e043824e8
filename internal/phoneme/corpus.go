package phoneme

import "fmt"

// Pause is the pseudo-symbol marking a short inter-word silence in a
// phonetic transcription.
const Pause = "pau"

// pauseDuration is the length of an inter-word pause in seconds.
const pauseDuration = 0.3

// Command is a VA voice command with its phonetic transcription.
type Command struct {
	// Text is the orthographic command, e.g. "turn on the lights".
	Text string
	// Phonemes is the phoneme sequence; Pause marks word boundaries.
	Phonemes []string
}

// Segment is one time-aligned phoneme in a synthesized utterance,
// equivalent to a TIMIT phonetic transcription entry.
type Segment struct {
	// Symbol is the phoneme symbol (never Pause).
	Symbol string
	// Start and End are sample offsets into the utterance, [Start, End).
	Start, End int
}

// Duration returns the segment length in samples.
func (s Segment) Duration() int { return s.End - s.Start }

// Commands returns the corpus of 20 common VA voice commands used by the
// evaluation, phonetically transcribed with the Table II inventory. The
// set mirrors the command categories of the paper's references [16], [17]
// (smart-home control, media, timers, queries).
func Commands() []Command {
	return []Command{
		{Text: "turn on the lights", Phonemes: split("t er n", "aa n", "dh ah", "l ay t s")},
		{Text: "turn off the lights", Phonemes: split("t er n", "ao f", "dh ah", "l ay t s")},
		{Text: "what is the weather", Phonemes: split("w ah t", "ih z", "dh ah", "w eh dh er")},
		{Text: "set an alarm", Phonemes: split("s eh t", "ae n", "ah l aa r m")},
		{Text: "play some music", Phonemes: split("p l ey", "s ah m", "m y uw z ih k")},
		{Text: "stop the music", Phonemes: split("s t aa p", "dh ah", "m y uw z ih k")},
		{Text: "lock the front door", Phonemes: split("l aa k", "dh ah", "f r ah n t", "d ao r")},
		{Text: "unlock the door", Phonemes: split("ah n l aa k", "dh ah", "d ao r")},
		{Text: "what time is it", Phonemes: split("w ah t", "t ay m", "ih z", "ih t")},
		{Text: "open the garage", Phonemes: split("ow p ah n", "dh ah", "g ah r aa jh")},
		{Text: "volume up", Phonemes: split("v aa l y uw m", "ah p")},
		{Text: "volume down", Phonemes: split("v aa l y uw m", "d aw n")},
		{Text: "good morning", Phonemes: split("g uh d", "m ao r n ih ng")},
		{Text: "call my phone", Phonemes: split("k ao l", "m ay", "f ow n")},
		{Text: "add milk to the list", Phonemes: split("ae d", "m ih l k", "t uw", "dh ah", "l ih s t")},
		{Text: "turn up the heat", Phonemes: split("t er n", "ah p", "dh ah", "hh iy t")},
		{Text: "set a timer for ten minutes", Phonemes: split("s eh t", "ah", "t ay m er", "f ao r", "t eh n", "m ih n ah t s")},
		{Text: "dim the bedroom lights", Phonemes: split("d ih m", "dh ah", "b eh d r uw m", "l ay t s")},
		{Text: "what is on my calendar", Phonemes: split("w ah t", "ih z", "aa n", "m ay", "k ae l ah n d er")},
		{Text: "turn on the coffee maker", Phonemes: split("t er n", "aa n", "dh ah", "k ao f iy", "m ey k er")},
	}
}

// WakeWords returns the wake-word commands used by the Table I attack
// study.
func WakeWords() []Command {
	return []Command{
		{Text: "ok google", Phonemes: split("ow k ey", "g uw g ah l")},
		{Text: "alexa", Phonemes: split("ah l eh k s ah")},
		{Text: "hey siri", Phonemes: split("hh ey", "s ih r iy")},
	}
}

// split joins space-separated phoneme words with Pause markers.
func split(words ...string) []string {
	out := make([]string, 0, 16)
	for i, w := range words {
		if i > 0 {
			out = append(out, Pause)
		}
		start := 0
		for j := 0; j <= len(w); j++ {
			if j == len(w) || w[j] == ' ' {
				if j > start {
					out = append(out, w[start:j])
				}
				start = j + 1
			}
		}
	}
	return out
}

// Validate checks that every phoneme of the command exists in the
// inventory.
func (c *Command) Validate() error {
	if len(c.Phonemes) == 0 {
		return fmt.Errorf("command %q: empty transcription", c.Text)
	}
	for _, p := range c.Phonemes {
		if p == Pause {
			continue
		}
		if _, err := Lookup(p); err != nil {
			return fmt.Errorf("command %q: %w", c.Text, err)
		}
	}
	return nil
}

// Utterance is a synthesized command waveform with its time-aligned
// phonetic transcription.
type Utterance struct {
	// Samples is the 16 kHz waveform.
	Samples []float64
	// Alignment lists every phoneme segment with sample-accurate bounds.
	Alignment []Segment
	// Command is the source command.
	Command Command
	// Speaker names the voice profile that produced the utterance.
	Speaker string
}

// SampleRate returns the waveform sampling rate.
func (u *Utterance) SampleRate() float64 { return SampleRate }

// Synthesize renders a command with this synthesizer's voice, returning
// the waveform and the time-aligned phoneme segments.
func (s *Synthesizer) Synthesize(cmd Command) (*Utterance, error) {
	if err := cmd.Validate(); err != nil {
		return nil, fmt.Errorf("synth: %w", err)
	}
	var samples []float64
	alignment := make([]Segment, 0, len(cmd.Phonemes))
	for _, sym := range cmd.Phonemes {
		if sym == Pause {
			samples = append(samples, make([]float64, int(pauseDuration*SampleRate))...)
			continue
		}
		seg, err := s.Phoneme(sym)
		if err != nil {
			return nil, fmt.Errorf("synth: %w", err)
		}
		start := len(samples)
		samples = append(samples, seg...)
		alignment = append(alignment, Segment{Symbol: sym, Start: start, End: len(samples)})
	}
	return &Utterance{
		Samples:   samples,
		Alignment: alignment,
		Command:   cmd,
		Speaker:   s.profile.Name,
	}, nil
}
