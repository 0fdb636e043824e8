package eval

import (
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"vibguard/internal/attack"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/selection"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden files under testdata/ from the current pipeline output")

// goldenArm pins one detector arm's headline metrics for one attack kind.
type goldenArm struct {
	Method string  `json:"method"`
	AUC    float64 `json:"auc"`
	EER    float64 `json:"eer"`
}

// goldenMetrics is the on-disk golden file: per-attack-kind metrics of all
// three detector arms on a small fixed-seed dataset.
type goldenMetrics struct {
	Seed  int64                  `json:"seed"`
	Kinds map[string][]goldenArm `json:"kinds"`
}

const (
	goldenPath = "testdata/golden_metrics.json"
	goldenSeed = 77
)

// goldenDataset is deliberately small: the point is pinning exact pipeline
// output, not statistical power.
func goldenDataset(t *testing.T) (*Dataset, SpanProvider) {
	t.Helper()
	ds, err := BuildDataset(DatasetConfig{Participants: 3, CommandsPerUser: 2, AttacksPerKind: 4, Seed: goldenSeed})
	if err != nil {
		t.Fatal(err)
	}
	return ds, &OracleProvider{Selected: selection.CanonicalSelected()}
}

func computeGoldenMetrics(t *testing.T) *goldenMetrics {
	t.Helper()
	ds, provider := goldenDataset(t)
	out := &goldenMetrics{Seed: goldenSeed, Kinds: make(map[string][]goldenArm)}
	for _, kind := range attack.Kinds() {
		summaries, err := EvaluateArms(ds, ds.Attacks[kind], device.NewFossilGen5(), provider, goldenSeed)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		arms := make([]goldenArm, 0, len(summaries))
		for _, s := range summaries {
			arms = append(arms, goldenArm{Method: s.Name, AUC: s.AUC, EER: s.EER})
		}
		out.Kinds[kind.String()] = arms
	}
	return out
}

// TestGoldenMetrics pins the end-to-end evaluation output — EER and AUC per
// attack kind for all three detector arms — against a checked-in golden
// file. The pipeline is deterministic for a fixed seed, so any drift means
// a behavioral change in synthesis, acoustics, sensing, scoring, or the
// metrics themselves; regenerate deliberately with
//
//	go test ./internal/eval/ -run TestGoldenMetrics -update-golden
func TestGoldenMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping golden evaluation in -short mode")
	}
	got := computeGoldenMetrics(t)
	var want goldenMetrics
	if !readGolden(t, goldenPath, got, &want) {
		return
	}
	if got.Seed != want.Seed {
		t.Fatalf("golden seed %d != test seed %d", want.Seed, got.Seed)
	}
	// Go's JSON float encoding round-trips float64 exactly, so the tolerance
	// only guards against future encoders that don't.
	const tol = 1e-9
	for kind, wantArms := range want.Kinds {
		gotArms, ok := got.Kinds[kind]
		if !ok {
			t.Errorf("attack kind %q missing from current output", kind)
			continue
		}
		if len(gotArms) != len(wantArms) {
			t.Errorf("%s: %d arms, want %d", kind, len(gotArms), len(wantArms))
			continue
		}
		for i, w := range wantArms {
			g := gotArms[i]
			if g.Method != w.Method {
				t.Errorf("%s arm %d: method %q, want %q", kind, i, g.Method, w.Method)
				continue
			}
			if math.Abs(g.AUC-w.AUC) > tol {
				t.Errorf("%s/%s: AUC %v, want %v", kind, w.Method, g.AUC, w.AUC)
			}
			if math.Abs(g.EER-w.EER) > tol {
				t.Errorf("%s/%s: EER %v, want %v", kind, w.Method, g.EER, w.EER)
			}
		}
	}
	for kind := range got.Kinds {
		if _, ok := want.Kinds[kind]; !ok {
			t.Errorf("attack kind %q not in golden file (regenerate with -update-golden)", kind)
		}
	}
}

// readGolden decodes the golden file at path into want and reports true.
// Under -update-golden it instead rewrites the file from got and reports
// false: there is nothing to compare.
func readGolden(t *testing.T, path string, got, want any) bool {
	t.Helper()
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden file rewritten: %s", path)
		return false
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden file (regenerate with -update-golden): %v", err)
	}
	if err := json.Unmarshal(data, want); err != nil {
		t.Fatal(err)
	}
	return true
}

const goldenVerdictsPath = "testdata/golden_verdicts.json"

// maxVerdictScoreDrift bounds how far a numerical-kernel change may move
// any one session's score. The golden dataset's closest score sits
// orders of magnitude further from the threshold (the test logs both), so
// a change inside the bound cannot flip a verdict there.
const maxVerdictScoreDrift = 1e-9

// goldenVerdict is one session's score and its verdict at the default
// threshold (detector.Detector.Detect: a score below it is an attack).
type goldenVerdict struct {
	Score  float64 `json:"score"`
	Attack bool    `json:"attack"`
}

// goldenVerdicts is the on-disk verdict file: for each detector arm, every
// legit session of the golden dataset and every session of each attack
// kind, in dataset order.
type goldenVerdicts struct {
	Seed      int64                                 `json:"seed"`
	Threshold float64                               `json:"threshold"`
	Arms      map[string]map[string][]goldenVerdict `json:"arms"`
}

func computeGoldenVerdicts(t *testing.T) *goldenVerdicts {
	t.Helper()
	ds, provider := goldenDataset(t)
	sets := map[string][]*Sample{"legit": ds.Legit}
	for _, kind := range attack.Kinds() {
		sets[kind.String()] = ds.Attacks[kind]
	}
	out := &goldenVerdicts{Seed: goldenSeed, Threshold: detector.DefaultThreshold,
		Arms: make(map[string]map[string][]goldenVerdict)}
	for _, method := range MethodArms() {
		sc, err := NewParallelScorer(method, device.NewFossilGen5(), provider, goldenSeed)
		if err != nil {
			t.Fatal(err)
		}
		arm := make(map[string][]goldenVerdict, len(sets))
		for name, samples := range sets {
			scores, err := sc.ScoreAll(samples)
			if err != nil {
				t.Fatalf("%v/%s: %v", method, name, err)
			}
			vs := make([]goldenVerdict, len(scores))
			for i, s := range scores {
				vs[i] = goldenVerdict{Score: s, Attack: s < detector.DefaultThreshold}
			}
			arm[name] = vs
		}
		out.Arms[method.String()] = arm
	}
	return out
}

// TestGoldenVerdicts is the per-verdict contract for numerical-kernel
// changes: every session of the golden dataset, in all three arms, must
// keep its verdict at the default threshold, and its score must stay
// within maxVerdictScoreDrift of the checked-in one. It logs the smallest
// distance of any score from the threshold beside the largest drift, so
// the margin a change leaves is on record. Regenerate deliberately with
//
//	go test ./internal/eval/ -run TestGoldenVerdicts -update-golden
func TestGoldenVerdicts(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping golden evaluation in -short mode")
	}
	got := computeGoldenVerdicts(t)
	var want goldenVerdicts
	if !readGolden(t, goldenVerdictsPath, got, &want) {
		return
	}
	if want.Seed != got.Seed || want.Threshold != got.Threshold {
		t.Fatalf("golden file is for seed %d threshold %v, test runs seed %d threshold %v",
			want.Seed, want.Threshold, got.Seed, got.Threshold)
	}
	margin, drift, sessions := math.Inf(1), 0.0, 0
	for arm, wantSets := range want.Arms {
		for set, wantVs := range wantSets {
			gotVs := got.Arms[arm][set]
			if len(gotVs) != len(wantVs) {
				t.Errorf("%s/%s: %d sessions, want %d", arm, set, len(gotVs), len(wantVs))
				continue
			}
			for i, w := range wantVs {
				g := gotVs[i]
				sessions++
				margin = min(margin, math.Abs(g.Score-got.Threshold))
				d := math.Abs(g.Score - w.Score)
				drift = max(drift, d)
				if g.Attack != w.Attack {
					t.Errorf("%s/%s session %d: attack=%v (score %v), want attack=%v (score %v)",
						arm, set, i, g.Attack, g.Score, w.Attack, w.Score)
				}
				if !(d <= maxVerdictScoreDrift) {
					t.Errorf("%s/%s session %d: score %v drifted %.3g from %v (bound %g)",
						arm, set, i, g.Score, d, w.Score, maxVerdictScoreDrift)
				}
			}
		}
	}
	for arm, sets := range got.Arms {
		for set := range sets {
			if _, ok := want.Arms[arm][set]; !ok {
				t.Errorf("%s/%s not in golden file (regenerate with -update-golden)", arm, set)
			}
		}
	}
	t.Logf("%d sessions: smallest |score - threshold| %.3g, largest |Δscore| %.3g", sessions, margin, drift)
}
