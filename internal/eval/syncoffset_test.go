package eval

import (
	"testing"

	"vibguard/internal/attack"
	"vibguard/internal/dsp/dspbench"
	"vibguard/internal/syncnet"
)

// TestSyncOffsetsMatchPackedSearch pins the Eq. (5) alignment on
// real-input transforms to the search it replaced: on every session of
// the golden dataset and of the quick attack corpus (`benchgen -quick
// -only attacks`: every kind under the standard conditions), each
// SyncOffset is the one the packed complex search
// (dspbench.EstimateDelayPacked) gives. The two reorder floating-point
// sums, so only a near-tie between two lags could part them; none does.
func TestSyncOffsetsMatchPackedSearch(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping dataset builds in -short mode")
	}
	golden, _ := goldenDataset(t)
	corpus, err := BuildDataset(DatasetConfig{Participants: 6, CommandsPerUser: 3, AttacksPerKind: 18,
		Conditions: StandardConditions(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	const maxLagSeconds, rate = 0.5, 16000
	sessions := 0
	for name, ds := range map[string]*Dataset{"golden": golden, "attack corpus": corpus} {
		sets := map[string][]*Sample{"legit": ds.Legit}
		for _, kind := range attack.Kinds() {
			sets[kind.String()] = ds.Attacks[kind]
		}
		for set, samples := range sets {
			for i, s := range samples {
				_, tau, err := syncnet.AlignRecordings(s.VARec, s.WearRec, maxLagSeconds, rate)
				if err != nil {
					t.Fatalf("%s/%s session %d: %v", name, set, i, err)
				}
				maxLag := min(int(maxLagSeconds*rate), len(s.WearRec)-1)
				if want := dspbench.EstimateDelayPacked(s.VARec, s.WearRec, maxLag); tau != want {
					t.Errorf("%s/%s session %d: SyncOffset %d, packed search %d", name, set, i, tau, want)
				}
				sessions++
			}
		}
	}
	t.Logf("%d sessions, every SyncOffset the packed search's", sessions)
}
