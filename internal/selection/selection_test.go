package selection

import (
	"testing"

	"vibguard/internal/acoustics"
	"vibguard/internal/device"
	"vibguard/internal/phoneme"
)

// fastConfig shrinks the study so tests stay quick while keeping enough
// samples for stable quartiles.
func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.SpeakerCount = 4
	cfg.SegmentsPerSpeaker = 2
	return cfg
}

func TestConfigValidation(t *testing.T) {
	mutations := []func(*Config){
		func(c *Config) { c.Barrier = acoustics.Barrier{} },
		func(c *Config) { c.Wearable = nil },
		func(c *Config) { c.SPLs = nil },
		func(c *Config) { c.SpeakerCount = 0 },
		func(c *Config) { c.SegmentsPerSpeaker = 0 },
		func(c *Config) { c.DistanceM = 0 },
		func(c *Config) { c.Alpha = 0 },
	}
	for i, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("mutation %d should invalidate config", i)
		}
	}
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestRunSelectsThirtyOnePhonemes(t *testing.T) {
	// The paper identifies 31 of the 37 common phonemes as barrier-effect
	// sensitive (Section V-A). Our calibrated simulation reproduces both
	// the count and the rationale: weak fricatives (/s/, /z/, /th/, /sh/)
	// fail Criterion II, and the loud open vowels (/aa/, /ao/) fail
	// Criterion I.
	res, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Selected); got != 31 {
		t.Errorf("selected %d phonemes, want 31: %v", got, res.Selected)
	}
	wantExcluded := []string{"s", "z", "th", "sh", "aa", "ao"}
	for _, sym := range wantExcluded {
		if res.Stats[sym].Sensitive() {
			t.Errorf("%q should be excluded", sym)
		}
	}
	// Weak fricatives fail because they cannot trigger the accelerometer
	// even without a barrier (Criterion II).
	for _, sym := range []string{"s", "z", "th", "sh"} {
		if !res.Stats[sym].PassI {
			t.Errorf("%q should pass Criterion I (it is quiet everywhere)", sym)
		}
		if res.Stats[sym].PassII {
			t.Errorf("%q should fail Criterion II (too weak)", sym)
		}
	}
	// Loud vowels fail because they still trigger the accelerometer after
	// the barrier (Criterion I).
	for _, sym := range []string{"aa", "ao"} {
		if res.Stats[sym].PassI {
			t.Errorf("%q should fail Criterion I (too loud)", sym)
		}
		if !res.Stats[sym].PassII {
			t.Errorf("%q should pass Criterion II", sym)
		}
	}
}

func TestCanonicalSelectedMatchesStudy(t *testing.T) {
	res, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	canonical := CanonicalSelected()
	if len(canonical) != 31 {
		t.Fatalf("canonical set has %d phonemes, want 31", len(canonical))
	}
	for _, sym := range phoneme.Symbols() {
		if canonical[sym] != res.Stats[sym].Sensitive() {
			t.Errorf("%q: canonical %v, study %v", sym, canonical[sym], res.Stats[sym].Sensitive())
		}
	}
}

func TestRunStatsComplete(t *testing.T) {
	res, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Stats) != phoneme.Count() {
		t.Fatalf("stats for %d phonemes, want %d", len(res.Stats), phoneme.Count())
	}
	for sym, s := range res.Stats {
		if s.Symbol != sym {
			t.Errorf("stats key %q has symbol %q", sym, s.Symbol)
		}
		if s.QAdvMax < 0 || s.QUserMin < 0 {
			t.Errorf("%q has negative statistics", sym)
		}
		if len(s.QAdv) != 33 || len(s.QUser) != 33 {
			t.Errorf("%q spectra have %d/%d bins, want 33", sym, len(s.QAdv), len(s.QUser))
		}
		// Criterion I implies the barrier substantially reduced energy:
		// adv spectrum peak must not exceed the user spectrum peak.
		if s.Sensitive() && s.QAdvMax >= maxOf(s.QUser) {
			t.Errorf("%q: adv peak %v >= user peak %v", sym, s.QAdvMax, maxOf(s.QUser))
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	a, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Selected) != len(b.Selected) {
		t.Fatalf("selection not deterministic: %d vs %d", len(a.Selected), len(b.Selected))
	}
	for i := range a.Selected {
		if a.Selected[i] != b.Selected[i] {
			t.Fatalf("selection order differs at %d", i)
		}
	}
	if a.Stats["er"].QAdvMax != b.Stats["er"].QAdvMax {
		t.Error("statistics not deterministic")
	}
}

func TestFig6ErProfile(t *testing.T) {
	// Fig. 6 shows /er/ passing a glass window: every Q3 bin below α, and
	// without the barrier: every Q3 bin above α.
	res, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	er := res.Stats["er"]
	if !er.Sensitive() {
		t.Fatal("/er/ should be barrier-effect sensitive (Fig. 6)")
	}
	skip := artifactBins(64, device.AccelSampleRate, 5)
	for k := skip; k < len(er.QAdv); k++ {
		if er.QAdv[k] >= res.Alpha {
			t.Errorf("/er/ adv bin %d = %v, want < alpha %v", k, er.QAdv[k], res.Alpha)
		}
		if er.QUser[k] <= res.Alpha {
			t.Errorf("/er/ user bin %d = %v, want > alpha %v", k, er.QUser[k], res.Alpha)
		}
	}
}

// TestSelectedListMatchesStats checks that Result.Selected lists exactly
// the sensitive phonemes of Result.Stats, and nothing unknown.
func TestSelectedListMatchesStats(t *testing.T) {
	res, err := Run(fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	sensitive := 0
	for _, st := range res.Stats {
		if st.Sensitive() {
			sensitive++
		}
	}
	if sensitive != len(res.Selected) {
		t.Errorf("%d sensitive phonemes, %d selected", sensitive, len(res.Selected))
	}
	for _, sym := range res.Selected {
		if st, ok := res.Stats[sym]; !ok || !st.Sensitive() {
			t.Errorf("selected %q is not sensitive", sym)
		}
	}
	if !res.Stats["er"].Sensitive() || res.Stats["s"].Sensitive() {
		t.Error("set membership wrong")
	}
	if _, ok := res.Stats["bogus"]; ok {
		t.Error("unknown symbol has stats")
	}
}

func TestArtifactBins(t *testing.T) {
	// At 200 Hz with 64-point FFT, bins are 3.125 Hz apart: bins 0 and 1
	// are at or below 5 Hz.
	if got := artifactBins(64, 200, 5); got != 2 {
		t.Errorf("artifactBins = %d, want 2", got)
	}
	if got := artifactBins(64, 200, 0); got != 1 {
		t.Errorf("artifactBins(0Hz cutoff) = %d, want 1 (DC)", got)
	}
}

func TestQuartilePerBin(t *testing.T) {
	spectra := [][]float64{{1, 10}, {2, 20}, {3, 30}, {4, 40}}
	q := quartilePerBin(spectra)
	if len(q) != 2 {
		t.Fatalf("bins = %d", len(q))
	}
	if q[0] != 3.25 || q[1] != 32.5 {
		t.Errorf("Q3 per bin = %v", q)
	}
	if quartilePerBin(nil) != nil {
		t.Error("empty input should be nil")
	}
}
