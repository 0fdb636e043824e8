package main

import (
	"fmt"
	"math/rand"

	"vibguard"
	"vibguard/internal/acoustics"
	"vibguard/internal/attack"
	"vibguard/internal/eval"
	"vibguard/internal/phoneme"
	"vibguard/internal/serve"
)

// Corpus shape: in each of corpusRounds rounds every command of the
// evaluation corpus appears twice, once spoken by a user in the room and
// once as a thru-barrier attack, so every seed sends the same mix of
// commands. Speakers, rooms (barriers), and attack kinds rotate over the
// sessions; the seed draws the voices, the articulation, the attacker's
// equipment, and the noise. Every legitimate session has its own voice,
// so that the speaking rate of any one seeded voice moves a run's timings
// little. Two rounds keep the share of sessions whose streamed verdict
// comes early, and so the stream workload's timings, about the same from
// seed to seed; with one round they spread by half.
const corpusRounds = 2

// sample is one voice-command session of the corpus: the VA recording, the
// primary wearable's recording, a second wearable's recording of the same
// sound (the fused workload's earbud), the pinned sensing seed, and the
// ground-truth label.
type sample struct {
	va, wear, wear2 []float64
	seed            int64
	attack          bool
}

// buildCorpus synthesizes the session corpus from seed with the
// evaluation engine's generator, so the benchmark sends the same kind of
// traffic the paper's experiments score.
func buildCorpus(seed int64) ([]sample, error) {
	cmds := len(phoneme.Commands())
	voices := corpusRounds * cmds
	gen, err := eval.NewGenerator(voices, seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	rooms := acoustics.Rooms()
	kinds := attack.PaperKinds()
	var out []sample
	add := func(s *eval.Sample, attack bool) {
		// The second wearable heard the same sound but reports it over
		// its own link, so it carries its own network-delay lead.
		wear2 := vibguard.SimulateNetworkDelay(s.WearRec, 0.02+0.06*rng.Float64(), rng)
		out = append(out, sample{
			va: s.VARec, wear: s.WearRec, wear2: wear2,
			seed:   serve.SessionSeed(seed, uint64(len(out))),
			attack: attack,
		})
	}
	for j := 0; j < voices; j++ {
		c := j % cmds
		cond := eval.DefaultCondition()
		cond.Room = rooms[j%len(rooms)]
		legit, err := gen.Legit(j, c, cond)
		if err != nil {
			return nil, fmt.Errorf("legit sample %d: %w", j, err)
		}
		add(legit, false)
		kind := kinds[(j+j/len(rooms))%len(kinds)]
		atk, err := gen.Attack(kind, (j+1)%voices, c, cond)
		if err != nil {
			return nil, fmt.Errorf("%v sample %d: %w", kind, j, err)
		}
		add(atk, true)
	}
	return out, nil
}
