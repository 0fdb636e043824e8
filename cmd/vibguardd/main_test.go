package main

import (
	"io"
	"log/slog"
	"math/rand"
	"testing"

	"vibguard"
	"vibguard/internal/syncnet"
)

// TestScenarioPassReusesConnection pins the connection-churn fix: the
// whole scenario pass must ride one wearable agent and one hardened
// client, dialing exactly once — not a fresh agent/client per scenario —
// and the shared agent must see zero per-connection errors.
func TestScenarioPassReusesConnection(t *testing.T) {
	logger := slog.New(slog.NewTextHandler(io.Discard, nil))
	rng := rand.New(rand.NewSource(7))

	fx, err := buildFixture(logger, rng, 80)
	if err != nil {
		t.Fatal(err)
	}
	scenarios := fx.scenarios()
	if len(scenarios) < 2 {
		t.Fatalf("expected both acoustic scenarios, got %d", len(scenarios))
	}

	// A cheap defense: the scenario utterance's oracle spans instead of
	// BRNN training keep this a plumbing test, not a model test.
	spans := vibguard.OracleSpans(fx.utt, vibguard.SelectedPhonemes())
	defense, err := vibguard.NewDefense(vibguard.Options{Segmenter: vibguard.StaticSegmenter(spans)})
	if err != nil {
		t.Fatal(err)
	}

	agent, stage, err := stagedAgent(logger, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = agent.Close() }()
	client, err := syncnet.NewReliableClient(agent.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = client.Close() }()

	mismatches, err := scenarioPass(logger, defense, client, stage, scenarios, rng)
	if err != nil {
		t.Fatal(err)
	}
	if mismatches != 0 {
		t.Errorf("scenario pass produced %d verdict mismatches", mismatches)
	}
	if got := agent.ConnErrors(); got != 0 {
		t.Errorf("agent saw %d connection errors (last: %v), want 0", got, agent.LastConnError())
	}
	if got := client.Redials(); got != 1 {
		t.Errorf("client dialed %d times across the pass, want exactly 1 (no churn)", got)
	}
	if got := client.Attempts(); got != uint64(len(scenarios)) {
		t.Errorf("client made %d transport attempts, want %d (one per scenario, no retries)", got, len(scenarios))
	}
}
