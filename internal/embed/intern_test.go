package embed

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// sameBits reports the first index at which two vectors differ bit for bit.
func sameBits(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// checkAgainstReference runs every interned text path of e on s and
// compares it with the reference functions on ref.
func checkAgainstReference(t testing.TB, e, ref *Encoder, s string) {
	t.Helper()
	if err := sameBits(e.RuleEmbedding(s), refRuleEmbedding(ref, s)); err != nil {
		t.Fatalf("RuleEmbedding(%q): %v", s, err)
	}
	if err := sameBits(e.Sentence(s), refSentence(ref, s)); err != nil {
		t.Fatalf("Sentence(%q): %v", s, err)
	}
}

var tokenizerCorpus = []string{
	"72.5°F", "İstanbul LIGHT", strings.Repeat("x", 200), "a.b", "3.", "",
	"the a an is of", "turn\x00on the\x01\x7f light", "3..5 .5 1.2.3. end.",
	"Turn ON the Living-Room lights when motion's detected",
	strings.Repeat("y", maxTokenLen), strings.Repeat("z", maxTokenLen+1),
	"lights\xff\xfeon", "ｆｕｌｌ width ３", "Ǆemal ǅ ǆ", "straße STRASSE",
}

// TestInternedTextMatchesReference walks the tokenizer's edge cases and a
// few real sentences through cold tables, then again through warm ones.
func TestInternedTextMatchesReference(t *testing.T) {
	e, ref := NewEncoder(16, 24), NewEncoder(16, 24)
	for pass := 0; pass < 2; pass++ {
		for _, s := range tokenizerCorpus {
			checkAgainstReference(t, e, ref, s)
		}
	}
	for _, pair := range [][2]string{
		{"motion is detected", "turn lights on"}, {"", "turn lights on"},
		{"the temperature rises above 72.5°F", ""}, {"the a", "an of"},
	} {
		if err := sameBits(e.PairEmbedding(pair[0], pair[1]),
			refPairEmbedding(ref, pair[0], pair[1])); err != nil {
			t.Fatalf("PairEmbedding(%q, %q): %v", pair[0], pair[1], err)
		}
	}
}

// FuzzRuleEmbedding: for arbitrary bytes the interned path equals the
// reference bit for bit and never panics — whichever of the ASCII scanner
// and text.Tokenize the bytes select, on cold and on warm tables.
func FuzzRuleEmbedding(f *testing.F) {
	for _, s := range tokenizerCorpus {
		f.Add(s)
	}
	e, ref := NewEncoder(8, 12), NewEncoder(8, 12)
	f.Fuzz(func(t *testing.T, s string) {
		checkAgainstReference(t, e, ref, s)
		checkAgainstReference(t, NewEncoder(8, 12), ref, s)
	})
}

// TestEncoderTablesBounded drives far more distinct tokens and sentences
// through the encoder than its tables hold: no table passes the bound, and
// every vector — stored or not — equals the reference's.
func TestEncoderTablesBounded(t *testing.T) {
	e, ref := NewEncoder(4, 6), NewEncoder(4, 6)
	const tokens, sentences, perText = 100000, 20000, 5
	for i := 0; i < tokens; i += perText {
		var b strings.Builder
		for k := 0; k < perText; k++ {
			fmt.Fprintf(&b, "tok%d ", i+k)
		}
		if err := sameBits(e.RuleEmbedding(b.String()), refRuleEmbedding(ref, b.String())); err != nil {
			t.Fatalf("tokens %d…: %v", i, err)
		}
	}
	for i := 0; i < sentences; i++ {
		s := fmt.Sprintf("turn on light %d when sensor%d trips", i, i%977)
		if err := sameBits(e.Sentence(s), refSentence(ref, s)); err != nil {
			t.Fatalf("sentence %d: %v", i, err)
		}
	}
	// Keys too long to store, however few.
	long := strings.Repeat("w", maxTokenLen+1)
	e.Word(long)
	e.Sentence(strings.Repeat("open valve ", maxSentenceKeyLen))
	// A second pass over stored and unstored keys alike.
	for _, i := range []int{0, 1, maxTableEntries - 1, maxTableEntries, tokens - 1} {
		checkAgainstReference(t, e, ref, fmt.Sprintf("close tok%d then tok%d", i, i/2))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for name, n := range map[string]int{"token": len(e.toks), "word": len(e.wordCache),
		"bigram": len(e.bigrams), "sentence": len(e.sentCache)} {
		if n > maxTableEntries {
			t.Errorf("%s table holds %d entries, bound %d", name, n, maxTableEntries)
		}
		if n < maxTableEntries {
			t.Errorf("%s table holds %d entries: the test did not reach the bound %d", name, n, maxTableEntries)
		}
	}
	if _, ok := e.wordCache[long]; ok {
		t.Errorf("a %d-byte word was stored, limit %d", len(long), maxTokenLen)
	}
	for s := range e.sentCache {
		if len(s) > maxSentenceKeyLen {
			t.Errorf("a %d-byte sentence was stored, limit %d", len(s), maxSentenceKeyLen)
		}
	}
}
