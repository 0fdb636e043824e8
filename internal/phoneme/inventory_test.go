package phoneme

import (
	"testing"
)

func TestInventorySize(t *testing.T) {
	if Count() != 37 {
		t.Errorf("inventory has %d phonemes, want 37 (Table II)", Count())
	}
}

func TestInventoryUniqueSymbols(t *testing.T) {
	seen := make(map[string]bool, Count())
	for _, s := range All() {
		if seen[s.Symbol] {
			t.Errorf("duplicate symbol %q", s.Symbol)
		}
		seen[s.Symbol] = true
	}
}

func TestInventoryTableIICounts(t *testing.T) {
	// Spot-check appearance counts against Table II.
	want := map[string]int{
		"t": 129, "n": 108, "ah": 107, "s": 101, "r": 100, "ih": 99,
		"d": 83, "l": 70, "k": 70, "ch": 69, "iy": 65, "m": 65,
		"er": 58, "z": 49, "w": 40, "ae": 39, "ey": 38, "p": 37,
		"ay": 36, "aa": 32, "uw": 31, "b": 31, "ao": 29, "f": 29,
		"v": 28, "hh": 20, "ng": 17, "ow": 17, "y": 15, "aw": 15,
		"jh": 14, "g": 13, "eh": 13, "dh": 12, "th": 10, "sh": 8, "uh": 6,
	}
	if len(want) != 37 {
		t.Fatalf("test table has %d entries", len(want))
	}
	for sym, count := range want {
		spec, err := Lookup(sym)
		if err != nil {
			t.Errorf("Lookup(%q): %v", sym, err)
			continue
		}
		if spec.Appearances != count {
			t.Errorf("%q appearances = %d, want %d", sym, spec.Appearances, count)
		}
	}
}

func TestAllSortedByAppearances(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i].Appearances > all[i-1].Appearances {
			t.Fatalf("All() not sorted at %d: %q(%d) after %q(%d)",
				i, all[i].Symbol, all[i].Appearances, all[i-1].Symbol, all[i-1].Appearances)
		}
	}
	if all[0].Symbol != "t" {
		t.Errorf("most common phoneme = %q, want t", all[0].Symbol)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := Lookup("zz"); err == nil {
		t.Error("unknown symbol should error")
	}
}

func TestVoicedClassification(t *testing.T) {
	voiced := []string{"ae", "aa", "m", "z", "b", "w", "ey"}
	unvoiced := []string{"s", "t", "f", "sh", "hh", "ch", "p", "k", "th"}
	for _, sym := range voiced {
		spec, err := Lookup(sym)
		if err != nil {
			t.Fatal(err)
		}
		if !spec.Voiced() {
			t.Errorf("%q should be voiced", sym)
		}
	}
	for _, sym := range unvoiced {
		spec, err := Lookup(sym)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Voiced() {
			t.Errorf("%q should be unvoiced", sym)
		}
	}
}

func TestDiphthongsHaveEndFormants(t *testing.T) {
	for _, s := range All() {
		if s.Class == ClassDiphthong {
			if s.FormantsEnd[0] == 0 {
				t.Errorf("diphthong %q has no end formants", s.Symbol)
			}
		}
	}
}

func TestSpecSanity(t *testing.T) {
	for _, s := range All() {
		if s.Intensity <= 0 {
			t.Errorf("%q intensity %v", s.Symbol, s.Intensity)
		}
		if s.Duration <= 0 || s.Duration > 0.5 {
			t.Errorf("%q duration %v", s.Symbol, s.Duration)
		}
		if s.Appearances <= 0 {
			t.Errorf("%q appearances %d", s.Symbol, s.Appearances)
		}
		if s.Voiced() && s.Class != ClassStopVoiced && s.Formants[0] <= 0 {
			t.Errorf("voiced %q has no formants", s.Symbol)
		}
		if (s.Class == ClassFricativeUnvoiced || s.Class == ClassStopUnvoiced ||
			s.Class == ClassAffricate || s.Class == ClassAspirate) && s.NoiseCenter <= 0 {
			t.Errorf("noise phoneme %q has no noise band", s.Symbol)
		}
	}
}

func TestWeakAndStrongPhonemeIntensities(t *testing.T) {
	// The paper's selection logic requires /s/, /z/ (and similar) to be
	// inherently weak and /aa/, /ao/ to be inherently strong.
	for _, weak := range []string{"s", "z", "th", "sh"} {
		spec, err := Lookup(weak)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Intensity > 0.1 {
			t.Errorf("%q intensity %v, want <= 0.1 (weak per Section V-A)", weak, spec.Intensity)
		}
	}
	for _, strong := range []string{"aa", "ao"} {
		spec, err := Lookup(strong)
		if err != nil {
			t.Fatal(err)
		}
		if spec.Intensity < 1.3 {
			t.Errorf("%q intensity %v, want >= 1.3 (strong larynx vibration)", strong, spec.Intensity)
		}
	}
}

func TestClassString(t *testing.T) {
	classes := []Class{
		ClassVowel, ClassDiphthong, ClassSemivowel, ClassNasal,
		ClassFricativeVoiced, ClassFricativeUnvoiced, ClassStopVoiced,
		ClassStopUnvoiced, ClassAffricate, ClassAspirate,
	}
	seen := make(map[string]bool)
	for _, c := range classes {
		name := c.String()
		if name == "unknown" || seen[name] {
			t.Errorf("class %d has bad/duplicate name %q", c, name)
		}
		seen[name] = true
	}
	if Class(0).String() != "unknown" {
		t.Error("zero class should be unknown")
	}
}

func TestSymbols(t *testing.T) {
	syms := Symbols()
	if len(syms) != 37 {
		t.Fatalf("len = %d", len(syms))
	}
	if syms[0] != "t" {
		t.Errorf("first = %q", syms[0])
	}
}
