package main

import (
	"fmt"
	"log/slog"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"vibguard/internal/core"
	"vibguard/internal/obs"
	"vibguard/internal/profile"
	"vibguard/internal/serve"
)

// runProfiles is the profiles mode: one node with the per-user profile
// store enabled takes two calibration passes of fused two-wearable
// sessions over a simulated user fleet through its TCP front-end. The
// first pass populates the worker's threshold cache and each user's
// profile, the second must hit the cache and reproduce every fused score
// bit-for-bit (same pinned per-session seed). A final fused attack
// session per user shows calibrated thresholds still reject thru-barrier
// replays, and the store round-trips through its snapshot file.
func runProfiles(logger *slog.Logger, o options) error {
	if o.users < 1 {
		return fmt.Errorf("-users must be >= 1")
	}
	if o.workers <= 0 {
		// One worker by default: every session consults the same LRU, so
		// the second pass deterministically hits the cache.
		o.workers = 1
	}
	rng := rand.New(rand.NewSource(o.seed))
	coal, err := setup(logger, o, rng)
	if err != nil {
		return err
	}
	defer coal.Close()
	fx, err := buildFixture(logger, rng, o.attackSPL)
	if err != nil {
		return err
	}
	defer fx.close()
	// A watch and an earbud per user heard the legitimate command; one
	// shared attack pair heard the replay. Each has its own delay.
	watches := make([]string, o.users+1)
	earbuds := make([]string, o.users+1)
	for i := range watches {
		attack := i == o.users
		if watches[i], err = fx.wearable(attack); err != nil {
			return err
		}
		if earbuds[i], err = fx.wearable(attack); err != nil {
			return err
		}
	}

	store := profile.NewStore(profile.Config{})
	srv, addr, err := newNode(logger, coal, o, o.serveAddr, 2*o.users, store)
	if err != nil {
		return err
	}
	client, err := serve.DialServer(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer func() { _ = client.Close() }()

	hits := obs.Default().Counter("profile.cache.hits")
	misses := obs.Default().Counter("profile.cache.misses")
	h0, m0 := hits.Value(), misses.Value()
	// inspect runs user i's fused session against wearable pair w.
	inspect := func(i, w int, seedIndex uint64) (*core.Verdict, error) {
		return client.Inspect(serve.Request{
			UserID:        fmt.Sprintf("user-%d", i),
			WearableAddr:  watches[w],
			WearableAddrs: []string{earbuds[w]},
			VARecording:   fx.va(w == o.users),
			RNGSeed:       serve.SessionSeed(o.seed, seedIndex),
		})
	}

	// Two identical calibration passes of fused legitimate sessions. The
	// per-session seed is pinned per user, so the fused score of pass 2
	// must reproduce pass 1 bit-for-bit — any divergence is a fusion
	// determinism bug, not acoustics.
	var failed, verdictMismatches, fusionMismatches int
	scoreBits := make([]uint64, o.users)
	for pass := 1; pass <= 2; pass++ {
		for i := range scoreBits {
			v, err := inspect(i, i, uint64(i))
			if err != nil {
				failed++
				logger.Error("fused session failed", "pass", pass, "user", i, "err", err)
				continue
			}
			if v.Attack {
				verdictMismatches++
				logger.Error("legitimate fused session flagged",
					"pass", pass, "user", i, "score", v.Score)
			}
			bits := math.Float64bits(v.Score)
			if pass == 1 {
				scoreBits[i] = bits
			} else if bits != scoreBits[i] {
				fusionMismatches++
				logger.Error("fused score not reproducible",
					"user", i, "pass1_bits", fmt.Sprintf("%x", scoreBits[i]),
					"pass2_bits", fmt.Sprintf("%x", bits))
			}
		}
		logger.Info("calibration pass done", "pass", pass,
			"cache_hits", hits.Value()-h0, "cache_misses", misses.Value()-m0)
	}

	// Calibrated users must still reject a fused thru-barrier replay.
	attacksFlagged := 0
	for i := range scoreBits {
		v, err := inspect(i, o.users, uint64(1000+i))
		if err != nil {
			failed++
			logger.Error("attack session failed", "user", i, "err", err)
			continue
		}
		if v.Attack {
			attacksFlagged++
		} else {
			verdictMismatches++
			logger.Error("fused thru-barrier attack missed", "user", i, "score", v.Score)
		}
	}

	// The store snapshot round-trips: save atomically, load into a fresh
	// store, same user population.
	snapPath := filepath.Join(os.TempDir(), fmt.Sprintf("vibguard-profiles-%d.snap", os.Getpid()))
	defer func() { _ = os.Remove(snapPath) }()
	if err := store.Save(snapPath); err != nil {
		return fmt.Errorf("profile snapshot save: %w", err)
	}
	restored := profile.NewStore(profile.Config{})
	if err := restored.Load(snapPath); err != nil {
		return fmt.Errorf("profile snapshot load: %w", err)
	}

	logger.Info("profile pass complete",
		"users", o.users,
		"sessions", 3*o.users,
		"failed", failed,
		"cache_hits", hits.Value()-h0,
		"cache_misses", misses.Value()-m0,
		"fusion_mismatches", fusionMismatches,
		"verdict_mismatches", verdictMismatches,
		"attacks_flagged", attacksFlagged,
		"snapshot_users", restored.Len())

	if err := drain(logger, o, "profile pass", nil, []*serve.Server{srv}); err != nil {
		return err
	}
	if failed > 0 || verdictMismatches > 0 || fusionMismatches > 0 {
		return fmt.Errorf("profile pass: %d failed, %d verdict mismatches, %d fusion mismatches",
			failed, verdictMismatches, fusionMismatches)
	}
	if restored.Len() != store.Len() {
		return fmt.Errorf("profile snapshot round-trip: %d users restored, want %d",
			restored.Len(), store.Len())
	}
	return nil
}
