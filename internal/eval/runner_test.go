package eval

import (
	"testing"

	"vibguard/internal/attack"
	"vibguard/internal/detector"
	"vibguard/internal/device"
	"vibguard/internal/selection"
)

func smallDataset(t *testing.T) *Dataset {
	t.Helper()
	ds, err := BuildDataset(DatasetConfig{
		Participants:    4,
		CommandsPerUser: 2,
		AttacksPerKind:  3,
		Seed:            1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestBuildDatasetShape(t *testing.T) {
	ds := smallDataset(t)
	if len(ds.Legit) != 8 {
		t.Errorf("legit samples = %d, want 8", len(ds.Legit))
	}
	if len(ds.Attacks) != len(attack.Kinds()) {
		t.Errorf("attack kinds = %d, want %d", len(ds.Attacks), len(attack.Kinds()))
	}
	for kind, samples := range ds.Attacks {
		if len(samples) != 3 {
			t.Errorf("%v: %d samples, want 3", kind, len(samples))
		}
		for i, s := range samples {
			if !s.IsAttack || s.AttackKind != kind {
				t.Errorf("%v[%d]: bad labels", kind, i)
			}
			if len(s.VARec) == 0 || len(s.WearRec) <= len(s.VARec) {
				t.Errorf("%v[%d]: recording lengths %d/%d (wearable should carry the network-delay lead)",
					kind, i, len(s.VARec), len(s.WearRec))
			}
			if s.LeadSamples <= 0 {
				t.Errorf("%v[%d]: missing lead context", kind, i)
			}
		}
	}
	for i, s := range ds.Legit {
		if s.IsAttack {
			t.Errorf("legit[%d] labeled as attack", i)
		}
		if s.Utterance == nil {
			t.Errorf("legit[%d] missing utterance", i)
		}
	}
}

func TestBuildDatasetValidation(t *testing.T) {
	if _, err := BuildDataset(DatasetConfig{Participants: 1, CommandsPerUser: 1}); err == nil {
		t.Error("single participant should error")
	}
	if _, err := BuildDataset(DatasetConfig{Participants: 2, CommandsPerUser: 0}); err == nil {
		t.Error("zero commands should error")
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(1, 1); err == nil {
		t.Error("single participant should error")
	}
	gen, err := NewGenerator(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gen.Voices()) != 3 || len(gen.Commands()) != 20 {
		t.Error("generator accessors wrong")
	}
	if _, err := gen.Legit(5, 0, DefaultCondition()); err == nil {
		t.Error("out-of-range voice should error")
	}
	if _, err := gen.Attack(attack.Replay, 9, 0, DefaultCondition()); err == nil {
		t.Error("out-of-range victim should error")
	}
	if _, err := gen.Attack(attack.Kind(99), 0, 0, DefaultCondition()); err == nil {
		t.Error("unknown attack kind should error")
	}
}

func TestOracleProviderShiftsSpans(t *testing.T) {
	ds := smallDataset(t)
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	s := ds.Legit[0]
	spans, err := provider.SpansFor(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) == 0 {
		t.Fatal("no spans")
	}
	// Spans must start at or after the lead context.
	if spans[0].Start < s.LeadSamples {
		t.Errorf("span start %d before lead %d", spans[0].Start, s.LeadSamples)
	}
	// And fit inside the recording.
	last := spans[len(spans)-1]
	if last.End > len(s.VARec) {
		t.Errorf("span end %d beyond recording %d", last.End, len(s.VARec))
	}
	if _, err := provider.SpansFor(&Sample{}); err == nil {
		t.Error("sample without utterance should error")
	}
}

func TestScorerSeparatesClasses(t *testing.T) {
	ds := smallDataset(t)
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	sc, err := NewParallelScorer(detector.MethodFull, device.NewFossilGen5(), provider, 7)
	if err != nil {
		t.Fatal(err)
	}
	legit, err := sc.ScoreAll(ds.Legit)
	if err != nil {
		t.Fatal(err)
	}
	attacks, err := sc.ScoreAll(ds.Attacks[attack.Replay])
	if err != nil {
		t.Fatal(err)
	}
	meanOf := func(xs []float64) float64 {
		sum := 0.0
		for _, v := range xs {
			sum += v
		}
		return sum / float64(len(xs))
	}
	if meanOf(legit) <= meanOf(attacks) {
		t.Errorf("legit mean %v not above attack mean %v", meanOf(legit), meanOf(attacks))
	}
}

func TestEvaluateArmsOrder(t *testing.T) {
	ds := smallDataset(t)
	provider := &OracleProvider{Selected: selection.CanonicalSelected()}
	sums, err := EvaluateArms(ds, ds.Attacks[attack.Replay], device.NewFossilGen5(), provider, 7)
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 3 {
		t.Fatalf("arms = %d", len(sums))
	}
	wantNames := []string{"audio-domain baseline", "vibration-domain baseline", "our defense system"}
	for i, s := range sums {
		if s.Name != wantNames[i] {
			t.Errorf("arm %d = %q, want %q", i, s.Name, wantNames[i])
		}
		if s.AUC < 0 || s.AUC > 1 {
			t.Errorf("arm %d AUC = %v", i, s.AUC)
		}
	}
}

func TestMethodArms(t *testing.T) {
	arms := MethodArms()
	if len(arms) != 3 || arms[2] != detector.MethodFull {
		t.Errorf("MethodArms = %v", arms)
	}
}
