package lexicon

import "testing"

func TestSynonyms(t *testing.T) {
	l := New()
	cases := []struct {
		a, b string
		want bool
	}{
		{"light", "lamp", true},
		{"lamp", "bulb", true},
		{"fridge", "refrigerator", true},
		{"light", "camera", false},
		{"open", "close", false},
		{"ac", "conditioner", true},
	}
	for _, c := range cases {
		if got := l.AreSynonyms(c.a, c.b); got != c.want {
			t.Errorf("AreSynonyms(%q,%q) = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestSynonymyIsSymmetric(t *testing.T) {
	l := New()
	var vocab []string
	for _, ss := range synsets {
		vocab = append(vocab, ss...)
	}
	for i := 0; i < len(vocab); i += 7 {
		for j := 0; j < len(vocab); j += 11 {
			a, b := vocab[i], vocab[j]
			if l.AreSynonyms(a, b) != l.AreSynonyms(b, a) {
				t.Fatalf("asymmetry for %q, %q", a, b)
			}
		}
	}
}

func TestHypernyms(t *testing.T) {
	l := New()
	if !l.IsHypernymOf("device", "camera") {
		t.Error("camera should be a device")
	}
	if !l.IsHypernymOf("device", "heater") {
		t.Error("heater → appliance → device chain broken")
	}
	if !l.IsHypernymOf("sensor", "detector") {
		t.Error("detector should be a sensor")
	}
	if l.IsHypernymOf("camera", "device") {
		t.Error("hypernymy must be directional")
	}
	// Synonym canonicalisation feeds into hypernym lookup.
	if !l.IsHypernymOf("device", "fridge") {
		t.Error("fridge (synonym of refrigerator) should be a device")
	}
}

func TestMeronyms(t *testing.T) {
	l := New()
	if !l.IsMeronymOf("lock", "door") {
		t.Error("lock is part of door")
	}
	if !l.IsMeronymOf("lock", "home") {
		t.Error("transitive meronymy lock → door → home")
	}
	if l.IsMeronymOf("door", "lock") {
		t.Error("meronymy must be directional")
	}
}

func TestRelate(t *testing.T) {
	l := New()
	cases := []struct {
		a, b string
		want Relation
	}{
		{"light", "bulb", Synonym},
		{"camera", "device", Hypernym},
		{"device", "camera", Hyponym},
		{"lock", "door", Meronym},
		{"door", "lock", Holonym},
		{"smoke", "humidity", None},
	}
	for _, c := range cases {
		if got := l.Relate(c.a, c.b); got != c.want {
			t.Errorf("Relate(%q,%q) = %v want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestRelationFeatures(t *testing.T) {
	l := New()
	f := l.RelationFeatures([]string{"light", "lock"}, []string{"lamp", "door"})
	if f[0] != 1 { // light~lamp synonym
		t.Errorf("synonym slot = %v", f[0])
	}
	if f[3] != 1 { // lock part-of door
		t.Errorf("meronym slot = %v", f[3])
	}
	empty := l.RelationFeatures([]string{"xyzzy"}, []string{"plugh"})
	for i, v := range empty {
		if v != 0 {
			t.Errorf("unknown words slot %d = %v", i, v)
		}
	}
	if len(f) != 5 {
		t.Fatalf("feature width %d", len(f))
	}
}

func TestCanonicalStability(t *testing.T) {
	l := New()
	if l.Canonical("lamp") != l.Canonical("bulb") {
		t.Error("synonyms must share a canonical form")
	}
	if l.Canonical("unknownword") != "unknownword" {
		t.Error("OOV canonical must be identity")
	}
	if l.Canonical("Air Conditioner") != l.Canonical("ac") {
		t.Error("normalisation (case, spaces) failed")
	}
}

func TestVocabularyNonEmptyAndUnique(t *testing.T) {
	words := map[string]bool{}
	for _, ss := range synsets {
		in := map[string]bool{}
		for _, w := range ss {
			if in[w] {
				t.Fatalf("synset %v lists %q twice", ss, w)
			}
			in[w], words[normalize(w)] = true, true
		}
	}
	if len(words) < 50 {
		t.Fatalf("vocabulary too small: %d", len(words))
	}
}

func TestRelationStringNames(t *testing.T) {
	for r := None; r <= Holonym; r++ {
		if r.String() == "" {
			t.Errorf("relation %d unnamed", r)
		}
	}
}
