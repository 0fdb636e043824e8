package eval

import (
	"fmt"
	"math"
	"math/rand"

	"vibguard/internal/acoustics"
	"vibguard/internal/attack"
	"vibguard/internal/brnn"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/dsp"
	"vibguard/internal/phoneme"
	"vibguard/internal/segment"
	"vibguard/internal/selection"
)

// StandardConditions returns the cross product of the paper's experimental
// settings: four rooms x three user distances x three attack volumes, with
// user speaking levels cycling through 65/70/75 dB (Section VII-A).
func StandardConditions() []Condition {
	var out []Condition
	userSPLs := []float64{65, 70, 75}
	i := 0
	for _, room := range acoustics.Rooms() {
		for _, dist := range []float64{1, 2, 3} {
			for _, aspl := range []float64{65, 75, 85} {
				out = append(out, Condition{
					Room: room, UserToVAM: dist, BarrierToVAM: 2, BarrierToWearableM: 2,
					UserSPL: userSPLs[i%3], AttackSPL: aspl,
				})
				i++
			}
		}
	}
	return out
}

// SpectrumComparison holds the averaged spectra of one phoneme before and
// after passing a barrier (Figs. 3 and 4).
type SpectrumComparison struct {
	// Symbol is the phoneme.
	Symbol string
	// Freqs are the bin center frequencies in Hz.
	Freqs []float64
	// Before and After are the average FFT magnitudes per bin without and
	// with the barrier.
	Before, After []float64
}

// Figure3 reproduces the audio-domain barrier-effect demonstration: the
// average FFT magnitude of phoneme sounds before and after passing the
// glass window (the paper shows /ae/ and /v/; 100 segments from ten
// speakers at 75 dB).
func Figure3(symbols []string, samplesPerSymbol int, seed int64) ([]SpectrumComparison, error) {
	if samplesPerSymbol <= 0 {
		return nil, fmt.Errorf("eval: samples %d must be positive", samplesPerSymbol)
	}
	voices := phoneme.NewStudioVoicePool(10, seed)
	barrier := acoustics.GlassWindow
	const fftSize = 4096
	const maxFreq = 3000.0
	bins := dsp.FrequencyBin(maxFreq, fftSize, phoneme.SampleRate) + 1
	out := make([]SpectrumComparison, 0, len(symbols))
	for _, sym := range symbols {
		cmp := SpectrumComparison{
			Symbol: sym,
			Freqs:  make([]float64, bins),
			Before: make([]float64, bins),
			After:  make([]float64, bins),
		}
		for k := 0; k < bins; k++ {
			cmp.Freqs[k] = dsp.BinFrequency(k, fftSize, phoneme.SampleRate)
		}
		count := 0
		for i := 0; i < samplesPerSymbol; i++ {
			voice := voices[i%len(voices)]
			voice.Seed = seed + int64(i)*101
			synth, err := phoneme.NewSynthesizer(voice)
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			seg, err := synth.PhonemeDur(sym, float64(fftSize)/phoneme.SampleRate)
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			calibrated, err := dsp.NormalizeRMS(seg, dsp.SPLToAmplitude(75))
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			before := dsp.MagnitudeSpectrum(calibrated[:fftSize])
			after := dsp.MagnitudeSpectrum(barrier.Apply(calibrated, phoneme.SampleRate)[:fftSize])
			for k := 0; k < bins; k++ {
				cmp.Before[k] += before[k]
				cmp.After[k] += after[k]
			}
			count++
		}
		inv := 1 / float64(count)
		for k := 0; k < bins; k++ {
			cmp.Before[k] *= inv
			cmp.After[k] *= inv
		}
		out = append(out, cmp)
	}
	return out, nil
}

// Figure4 reproduces the vibration-domain version of the comparison: the
// average FFT magnitude of the wearable's accelerometer captures of the
// same phoneme sounds before and after the barrier.
func Figure4(symbols []string, samplesPerSymbol int, seed int64) ([]SpectrumComparison, error) {
	if samplesPerSymbol <= 0 {
		return nil, fmt.Errorf("eval: samples %d must be positive", samplesPerSymbol)
	}
	voices := phoneme.NewStudioVoicePool(10, seed)
	barrier := acoustics.GlassWindow
	w := device.NewFossilGen5()
	rng := rand.New(rand.NewSource(seed))
	const fftSize = 64
	bins := fftSize/2 + 1
	out := make([]SpectrumComparison, 0, len(symbols))
	for _, sym := range symbols {
		cmp := SpectrumComparison{
			Symbol: sym,
			Freqs:  make([]float64, bins),
			Before: make([]float64, bins),
			After:  make([]float64, bins),
		}
		for k := 0; k < bins; k++ {
			cmp.Freqs[k] = dsp.BinFrequency(k, fftSize, device.AccelSampleRate)
		}
		count := 0
		for i := 0; i < samplesPerSymbol; i++ {
			voice := voices[i%len(voices)]
			voice.Seed = seed + int64(i)*131
			synth, err := phoneme.NewSynthesizer(voice)
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			seg, err := synth.PhonemeDur(sym, 0.3)
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			calibrated, err := dsp.NormalizeRMS(seg, dsp.SPLToAmplitude(75))
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			direct := acoustics.Propagate(calibrated, 2)
			thru := acoustics.Propagate(barrier.Apply(calibrated, phoneme.SampleRate), 2)
			vibBefore, err := w.SenseVibration(direct, rng)
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			vibAfter, err := w.SenseVibration(thru, rng)
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			specB, err := dsp.STFT(vibBefore, dsp.STFTConfig{FFTSize: fftSize, HopSize: 32, SampleRate: device.AccelSampleRate})
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			specA, err := dsp.STFT(vibAfter, dsp.STFTConfig{FFTSize: fftSize, HopSize: 32, SampleRate: device.AccelSampleRate})
			if err != nil {
				return nil, fmt.Errorf("eval: %w", err)
			}
			addMeanMagnitude(cmp.Before, specB)
			addMeanMagnitude(cmp.After, specA)
			count++
		}
		inv := 1 / float64(count)
		for k := 0; k < bins; k++ {
			cmp.Before[k] *= inv
			cmp.After[k] *= inv
		}
		out = append(out, cmp)
	}
	return out, nil
}

func addMeanMagnitude(acc []float64, spec *dsp.Spectrogram) {
	if spec.NumFrames() == 0 {
		return
	}
	for k := 0; k < spec.NumBins() && k < len(acc); k++ {
		sum := 0.0
		for _, row := range spec.Power {
			sum += row[k]
		}
		mean := sum / float64(spec.NumFrames())
		if mean > 0 {
			acc[k] += math.Sqrt(mean)
		}
	}
}

// Figure7 reproduces the accelerometer chirp-response measurement: the
// power per vibration-domain frequency for a 500-2500 Hz audio chirp,
// showing the 0-5 Hz hypersensitivity artifact.
func Figure7(seed int64) (freqs, power []float64, err error) {
	accel := device.NewAccelerometer()
	rng := rand.New(rand.NewSource(seed))
	spec, err := accel.ChirpResponse(500, 2500, 4.0, phoneme.SampleRate, rng)
	if err != nil {
		return nil, nil, err
	}
	n := (len(spec) - 1) * 2
	freqs = make([]float64, len(spec))
	for k := range spec {
		freqs[k] = dsp.BinFrequency(k, n, device.AccelSampleRate)
	}
	return freqs, spec, nil
}

// TableIEntry is one cell of the Table I attack study.
type TableIEntry struct {
	// Device is the VA product name.
	Device string
	// Barrier names the barrier ("glass window" / "wooden door").
	Barrier string
	// Attack is the attack kind.
	Attack attack.Kind
	// SPL is the attack playback level.
	SPL float64
	// Successes out of Attempts wake attempts.
	Successes, Attempts int
	// Tested is false for the "-" cells (Siri's speaker verification
	// rejects random and synthesis attacks outright).
	Tested bool
}

// TableI reproduces the thru-barrier attack study: wake words replayed
// 10 cm behind each barrier at 65 and 75 dB against the four VA devices,
// ten attempts per cell.
func TableI(attempts int, seed int64) ([]TableIEntry, error) {
	if attempts <= 0 {
		return nil, fmt.Errorf("eval: attempts %d must be positive", attempts)
	}
	rng := rand.New(rand.NewSource(seed))
	voices := phoneme.NewVoicePool(4, seed+9)
	attacker := attack.NewAttacker(seed + 17)
	rooms := map[string]acoustics.Room{}
	roomA, err := acoustics.RoomByName("A") // glass window
	if err != nil {
		return nil, err
	}
	roomB, err := acoustics.RoomByName("B") // wooden door
	if err != nil {
		return nil, err
	}
	rooms[roomA.Barrier.Name] = roomA
	rooms[roomB.Barrier.Name] = roomB

	wakeWords := map[string]phoneme.Command{
		"Google Home": phoneme.WakeWords()[0],
		"Alexa Echo":  phoneme.WakeWords()[1],
		"MacBook Pro": phoneme.WakeWords()[2],
		"iPhone":      phoneme.WakeWords()[2],
	}
	var out []TableIEntry
	for _, barrierName := range []string{"glass window", "wooden door"} {
		room := rooms[barrierName]
		for _, dev := range device.AllVADevices() {
			cmd := wakeWords[dev.Name]
			for _, kind := range []attack.Kind{attack.Random, attack.Replay, attack.Synthesis} {
				for _, spl := range []float64{65, 75} {
					entry := TableIEntry{
						Device: dev.Name, Barrier: barrierName,
						Attack: kind, SPL: spl, Attempts: attempts,
						Tested: !(dev.SpeakerVerification && kind != attack.Replay),
					}
					if entry.Tested {
						for i := 0; i < attempts; i++ {
							ok, err := tableIAttempt(dev, room, cmd, kind, spl, voices, attacker, rng)
							if err != nil {
								return nil, err
							}
							if ok {
								entry.Successes++
							}
						}
					}
					out = append(out, entry)
				}
			}
		}
	}
	// Hidden voice attack on Google Home only (the paper had hidden
	// commands only for "OK Google").
	gh := device.NewGoogleHome()
	for _, barrierName := range []string{"glass window", "wooden door"} {
		room := rooms[barrierName]
		for _, spl := range []float64{65, 75} {
			entry := TableIEntry{
				Device: gh.Name, Barrier: barrierName,
				Attack: attack.HiddenVoice, SPL: spl, Attempts: attempts, Tested: true,
			}
			for i := 0; i < attempts; i++ {
				ok, err := tableIAttempt(gh, room, wakeWords[gh.Name], attack.HiddenVoice, spl, voices, attacker, rng)
				if err != nil {
					return nil, err
				}
				if ok {
					entry.Successes++
				}
			}
			out = append(out, entry)
		}
	}
	return out, nil
}

func tableIAttempt(dev *device.VADevice, room acoustics.Room, cmd phoneme.Command,
	kind attack.Kind, spl float64, voices []phoneme.VoiceProfile,
	attacker *attack.Attacker, rng *rand.Rand) (bool, error) {

	victim := voices[0]
	victim.Seed = rng.Int63()
	synth, err := phoneme.NewSynthesizer(victim)
	if err != nil {
		return false, err
	}
	utt, err := synth.Synthesize(cmd)
	if err != nil {
		return false, err
	}
	var audio []float64
	switch kind {
	case attack.Random:
		adversary := voices[1+rng.Intn(len(voices)-1)]
		adversary.Seed = rng.Int63()
		audio, err = attacker.RandomAttack(adversary, cmd)
	case attack.Replay:
		audio, err = attacker.ReplayAttack(utt.Samples)
	case attack.Synthesis:
		audio, err = attacker.SynthesisAttack([][]float64{utt.Samples}, cmd)
	case attack.HiddenVoice:
		audio, err = attacker.HiddenVoiceAttack(utt.Samples)
	default:
		return false, fmt.Errorf("eval: unknown attack %d", kind)
	}
	if err != nil {
		return false, err
	}
	// Pad with context so the recording has a noise floor to score
	// against, as a real always-listening device would.
	lead := int(0.3 * phoneme.SampleRate)
	padded := dsp.Concat(make([]float64, lead), audio, make([]float64, lead))
	pressure, err := room.Transmit(padded, acoustics.PathConfig{
		SourceSPL:      spl,
		DistanceM:      loudspeakerToBarrierM + 2,
		ThroughBarrier: true,
		SampleRate:     phoneme.SampleRate,
	}, rng)
	if err != nil {
		return false, err
	}
	rec, err := dev.Record(pressure, rng)
	if err != nil {
		return false, err
	}
	return dev.TryWake(rec, rng), nil
}

// DetectionAccuracy reproduces the phoneme-detection evaluation of Section
// V-B: a BRNN is trained on studio utterances, then frame accuracy is
// measured on held-out recordings without and with the barrier (the paper
// reports 94% and 91%).
func DetectionAccuracy(hidden, trainVoices, trainCommands, epochs int, seed int64) (direct, thruBarrier float64, err error) {
	sel := selection.CanonicalSelected()
	det, err := segment.NewDetector(sel, brnn.Config{InputDim: 14, HiddenDim: hidden, NumClasses: 2, Seed: seed})
	if err != nil {
		return 0, 0, err
	}
	voices := phoneme.NewStudioVoicePool(trainVoices+2, seed+5)
	cmds := phoneme.Commands()
	if trainCommands > len(cmds) {
		trainCommands = len(cmds)
	}
	rng := rand.New(rand.NewSource(seed + 77))
	room, err := acoustics.RoomByName("A")
	if err != nil {
		return 0, 0, err
	}
	mic := device.NewMicrophone(16000)
	// Training data goes through the same recording chain as deployment
	// (the paper trains on broadband recordings of the corpus, and the VA
	// reuses its speech pipeline's preprocessed audio).
	var train []*phoneme.Utterance
	for _, v := range voices[:trainVoices] {
		synth, err := phoneme.NewSynthesizer(v)
		if err != nil {
			return 0, 0, err
		}
		for _, cmd := range cmds[:trainCommands] {
			u, err := synth.Synthesize(cmd)
			if err != nil {
				return 0, 0, err
			}
			p, err := room.Transmit(u.Samples, acoustics.PathConfig{SourceSPL: 75, DistanceM: 2, SampleRate: 16000}, rng)
			if err != nil {
				return 0, 0, err
			}
			rec, err := mic.Record(p, rng)
			if err != nil {
				return 0, 0, err
			}
			train = append(train, &phoneme.Utterance{Samples: rec, Alignment: u.Alignment, Command: u.Command, Speaker: u.Speaker})
		}
	}
	if _, err := det.Train(train, brnn.TrainConfig{Epochs: epochs, LearningRate: 0.006, ClipNorm: 5, Seed: seed}); err != nil {
		return 0, 0, err
	}
	// Held-out voices, recorded through the same chain.
	var directUtts, barrierUtts []*phoneme.Utterance
	for _, v := range voices[trainVoices:] {
		synth, err := phoneme.NewSynthesizer(v)
		if err != nil {
			return 0, 0, err
		}
		for _, cmd := range cmds[:trainCommands] {
			u, err := synth.Synthesize(cmd)
			if err != nil {
				return 0, 0, err
			}
			pDirect, err := room.Transmit(u.Samples, acoustics.PathConfig{SourceSPL: 75, DistanceM: 2, SampleRate: 16000}, rng)
			if err != nil {
				return 0, 0, err
			}
			recDirect, err := mic.Record(pDirect, rng)
			if err != nil {
				return 0, 0, err
			}
			pThru, err := room.Transmit(u.Samples, acoustics.PathConfig{SourceSPL: 85, DistanceM: 2, ThroughBarrier: true, SampleRate: 16000}, rng)
			if err != nil {
				return 0, 0, err
			}
			recThru, err := mic.Record(pThru, rng)
			if err != nil {
				return 0, 0, err
			}
			directUtts = append(directUtts, &phoneme.Utterance{Samples: recDirect, Alignment: u.Alignment, Command: u.Command, Speaker: u.Speaker})
			barrierUtts = append(barrierUtts, &phoneme.Utterance{Samples: recThru, Alignment: u.Alignment, Command: u.Command, Speaker: u.Speaker})
		}
	}
	direct, err = det.FrameAccuracy(directUtts)
	if err != nil {
		return 0, 0, err
	}
	thruBarrier, err = det.FrameAccuracy(barrierUtts)
	if err != nil {
		return 0, 0, err
	}
	return direct, thruBarrier, nil
}

// FigureConfig sizes the ROC experiments (Figs. 9-11).
type FigureConfig struct {
	// Participants, CommandsPerUser, AttacksPerKind size the dataset.
	Participants, CommandsPerUser, AttacksPerKind int
	// Seed drives all randomness.
	Seed int64
}

// DefaultFigureConfig returns the dataset sizing used by the benchmark
// harness. The paper's datasets are larger (26400 random-attack samples);
// this sizing keeps one figure under a couple of minutes while holding the
// metric estimates stable.
func DefaultFigureConfig() FigureConfig {
	return FigureConfig{Participants: 12, CommandsPerUser: 6, AttacksPerKind: 60, Seed: 1}
}

// Figure9 reproduces the ROC comparison of one clear-voice attack (Figs.
// 9a-9c) or the hidden voice attack (Fig. 10): three summaries in the
// order audio baseline, vibration baseline, full system.
func Figure9(kind attack.Kind, cfg FigureConfig) ([]Summary, error) {
	ds, err := BuildDataset(DatasetConfig{
		Participants:    cfg.Participants,
		CommandsPerUser: cfg.CommandsPerUser,
		AttacksPerKind:  cfg.AttacksPerKind,
		Kinds:           []attack.Kind{kind},
		Conditions:      StandardConditions(),
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	return EvaluateArms(ds, ds.Attacks[kind], device.NewFossilGen5(), provider, cfg.Seed+1000)
}

// EERCell is one bar of a Fig. 11 panel.
type EERCell struct {
	// Label names the swept setting (volume, material, distance, room).
	Label string
	// Method is the detector arm.
	Method detector.Method
	// Attack is the attack kind.
	Attack attack.Kind
	// EER is the measured equal error rate.
	EER float64
}

// Figure11a sweeps the replay-attack volume (65/75/85 dB) for all three
// detector arms.
func Figure11a(cfg FigureConfig) ([]EERCell, error) {
	var out []EERCell
	for _, spl := range []float64{65, 75, 85} {
		conds := conditionsWithAttackSPL(spl)
		ds, err := BuildDataset(DatasetConfig{
			Participants:    cfg.Participants,
			CommandsPerUser: cfg.CommandsPerUser,
			AttacksPerKind:  cfg.AttacksPerKind,
			Kinds:           []attack.Kind{attack.Replay},
			Conditions:      conds,
			Seed:            cfg.Seed + int64(spl),
		})
		if err != nil {
			return nil, err
		}
		provider := &OracleProvider{Selected: selection.CanonicalSelected()}
		sums, err := EvaluateArms(ds, ds.Attacks[attack.Replay], device.NewFossilGen5(), provider, cfg.Seed+2000)
		if err != nil {
			return nil, err
		}
		for i, m := range MethodArms() {
			out = append(out, EERCell{
				Label: fmt.Sprintf("%.0fdB", spl), Method: m,
				Attack: attack.Replay, EER: sums[i].EER,
			})
		}
	}
	return out, nil
}

func conditionsWithAttackSPL(spl float64) []Condition {
	conds := StandardConditions()
	out := conds[:0]
	for _, c := range conds {
		if c.AttackSPL == spl {
			out = append(out, c)
		}
	}
	return out
}

// sweepEERs runs the full system over each condition subset and attack
// kind of the paper's threat model, producing one EER cell per (label,
// kind). The figures reproduce the paper, so the sweep stays on
// PaperKinds; the extension kinds are measured by AttackCorpus.
func sweepEERs(labels []string, condSets [][]Condition, cfg FigureConfig) ([]EERCell, error) {
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	var out []EERCell
	for li, conds := range condSets {
		ds, err := BuildDataset(DatasetConfig{
			Participants:    cfg.Participants,
			CommandsPerUser: cfg.CommandsPerUser,
			AttacksPerKind:  cfg.AttacksPerKind,
			Kinds:           attack.PaperKinds(),
			Conditions:      conds,
			Seed:            cfg.Seed + int64(li)*37,
		})
		if err != nil {
			return nil, err
		}
		sc, err := NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, cfg.Seed+3000)
		if err != nil {
			return nil, err
		}
		legit, err := sc.ScoreAll(ds.Legit)
		if err != nil {
			return nil, err
		}
		for _, kind := range attack.PaperKinds() {
			attacks, err := sc.ScoreAll(ds.Attacks[kind])
			if err != nil {
				return nil, err
			}
			sum, err := Summarize(kind.String(), legit, attacks)
			if err != nil {
				return nil, err
			}
			out = append(out, EERCell{
				Label: labels[li], Method: detector.MethodFull,
				Attack: kind, EER: sum.EER,
			})
		}
	}
	return out, nil
}

// Figure11b compares the full system's EER across barrier materials (wood
// vs glass rooms) for all four attacks.
func Figure11b(cfg FigureConfig) ([]EERCell, error) {
	var wood, glass []Condition
	for _, c := range StandardConditions() {
		if c.Room.Barrier.Material == acoustics.Wood {
			wood = append(wood, c)
		} else {
			glass = append(glass, c)
		}
	}
	return sweepEERs([]string{"Wood", "Glass"}, [][]Condition{wood, glass}, cfg)
}

// Figure11c sweeps the barrier-to-VA distance (3/4/5 m) with the
// barrier-to-wearable distance fixed at 2 m, for all four attacks.
func Figure11c(cfg FigureConfig) ([]EERCell, error) {
	labels := []string{"3m", "4m", "5m"}
	var sets [][]Condition
	for _, d := range []float64{3, 4, 5} {
		var conds []Condition
		for _, c := range StandardConditions() {
			c.BarrierToVAM = d
			c.UserToVAM = d - 1 // the user stands between barrier and VA
			conds = append(conds, c)
		}
		sets = append(sets, conds)
	}
	return sweepEERs(labels, sets, cfg)
}

// Figure11d compares the full system's EER across the four rooms for all
// four attacks.
func Figure11d(cfg FigureConfig) ([]EERCell, error) {
	labels := []string{"Room A", "Room B", "Room C", "Room D"}
	var sets [][]Condition
	for _, room := range acoustics.Rooms() {
		var conds []Condition
		for _, c := range StandardConditions() {
			if c.Room.Name == room.Name {
				conds = append(conds, c)
			}
		}
		sets = append(sets, conds)
	}
	return sweepEERs(labels, sets, cfg)
}

// WearableCell reports the full system's performance on one wearable
// model (the paper evaluates both a Fossil Gen 5 and a Moto 360 2020).
type WearableCell struct {
	// Wearable is the device name.
	Wearable string
	// Summary holds AUC/EER of the full system under replay attack.
	Summary Summary
}

// WearableComparison runs the full system with each smartwatch model, an
// extension of the device study of Section VII-A.
func WearableComparison(cfg FigureConfig) ([]WearableCell, error) {
	ds, err := BuildDataset(DatasetConfig{
		Participants:    cfg.Participants,
		CommandsPerUser: cfg.CommandsPerUser,
		AttacksPerKind:  cfg.AttacksPerKind,
		Kinds:           []attack.Kind{attack.Replay},
		Conditions:      StandardConditions(),
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	var out []WearableCell
	for _, w := range []*device.Wearable{device.NewFossilGen5(), device.NewMoto360()} {
		sc, err := NewParallelScorer(detector.MethodFull, w, provider, cfg.Seed+4000)
		if err != nil {
			return nil, err
		}
		sum, err := sc.ScoreDataset(w.Name, ds.Legit, ds.Attacks[attack.Replay])
		if err != nil {
			return nil, err
		}
		out = append(out, WearableCell{Wearable: w.Name, Summary: sum})
	}
	return out, nil
}

// AttackCorpusRow is one row of the per-attack defense report: the full
// system's EER/AUC against one attack kind, with the holds/degrades/breaks
// verdict.
type AttackCorpusRow struct {
	// Kind is the attack.
	Kind attack.Kind
	// EER and AUC are the full system's metrics against this kind.
	EER, AUC float64
	// Verdict is VerdictFor(EER).
	Verdict string
}

// Verdict thresholds: the full system's EER against every paper attack
// sits near 0.11 on the benchmark datasets, so 0.15 bounds the normal
// operating range and 0.35 marks the approach to coin-flip performance.
const (
	verdictHoldsMaxEER    = 0.15
	verdictDegradesMaxEER = 0.35
)

// VerdictFor classifies the defense's standing against an attack kind
// from its full-system EER: "holds" while detection stays inside the
// paper-kind operating range, "degrades" when it is measurably worse but
// still clearly better than chance, and "breaks" when it approaches (or
// passes) coin-flip performance.
func VerdictFor(eer float64) string {
	switch {
	case eer <= verdictHoldsMaxEER:
		return "holds"
	case eer <= verdictDegradesMaxEER:
		return "degrades"
	default:
		return "breaks"
	}
}

// AttackCorpus measures the full system against every attack kind —
// the paper's four plus the adaptive-adversary extensions — on one
// condition-swept dataset, and attaches the holds/degrades/breaks verdict
// per kind. EXPERIMENTS.md records the output.
func AttackCorpus(cfg FigureConfig) ([]AttackCorpusRow, error) {
	ds, err := BuildDataset(DatasetConfig{
		Participants:    cfg.Participants,
		CommandsPerUser: cfg.CommandsPerUser,
		AttacksPerKind:  cfg.AttacksPerKind,
		Conditions:      StandardConditions(),
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	sc, err := NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, cfg.Seed+6000)
	if err != nil {
		return nil, err
	}
	legit, err := sc.ScoreAll(ds.Legit)
	if err != nil {
		return nil, err
	}
	var out []AttackCorpusRow
	for _, kind := range attack.Kinds() {
		attacks, err := sc.ScoreAll(ds.Attacks[kind])
		if err != nil {
			return nil, err
		}
		sum, err := Summarize(kind.String(), legit, attacks)
		if err != nil {
			return nil, err
		}
		out = append(out, AttackCorpusRow{
			Kind: kind, EER: sum.EER, AUC: sum.AUC, Verdict: VerdictFor(sum.EER),
		})
	}
	return out, nil
}

// MotionCell reports the full system's EER with wearer body motion of a
// given amplitude, validating the sub-5Hz crop's interference rejection
// (Section VI-B).
type MotionCell struct {
	// MotionAmp is the body-motion amplitude injected into the
	// accelerometer (0 = still arm).
	MotionAmp float64
	// Summary holds AUC/EER of the full system under replay attack.
	Summary Summary
}

// BodyMotionRobustness sweeps wearer body-motion interference levels.
func BodyMotionRobustness(cfg FigureConfig, amps []float64) ([]MotionCell, error) {
	ds, err := BuildDataset(DatasetConfig{
		Participants:    cfg.Participants,
		CommandsPerUser: cfg.CommandsPerUser,
		AttacksPerKind:  cfg.AttacksPerKind,
		Kinds:           []attack.Kind{attack.Replay},
		Conditions:      StandardConditions(),
		Seed:            cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	var out []MotionCell
	for _, amp := range amps {
		w := device.NewFossilGen5()
		w.Accel.BodyMotionAmp = amp
		sc, err := NewParallelScorer(detector.MethodFull, w, provider, cfg.Seed+5000)
		if err != nil {
			return nil, err
		}
		sum, err := sc.ScoreDataset(fmt.Sprintf("motion %.2f", amp), ds.Legit, ds.Attacks[attack.Replay])
		if err != nil {
			return nil, err
		}
		out = append(out, MotionCell{MotionAmp: amp, Summary: sum})
	}
	return out, nil
}
