package embed

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"fexiot/internal/mat"
	"fexiot/internal/rules"
)

func TestWordDeterminism(t *testing.T) {
	e1 := NewEncoder(64, 96)
	e2 := NewEncoder(64, 96)
	a := e1.Word("light")
	b := e2.Word("light")
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("embeddings must be deterministic across encoders")
		}
	}
}

func TestWordNormalised(t *testing.T) {
	e := NewEncoder(64, 96)
	for _, w := range []string{"light", "camera", "zzzunknown", "detect"} {
		n := mat.Norm2(e.Word(w))
		if math.Abs(n-1) > 1e-9 {
			t.Errorf("‖%s‖ = %v want 1", w, n)
		}
	}
}

func TestSemanticStructure(t *testing.T) {
	e := NewEncoder(128, 128)
	sim := func(a, b string) float64 { return mat.CosineSimilarity(e.Word(a), e.Word(b)) }
	synSim := sim("light", "lamp")
	unrelSim := sim("light", "humidity")
	if synSim < 0.8 {
		t.Errorf("synonym similarity %v too low", synSim)
	}
	if synSim <= unrelSim+0.3 {
		t.Errorf("synonyms (%v) must be far closer than unrelated (%v)",
			synSim, unrelSim)
	}
	// Hypernym sharing: two appliances closer than appliance vs hazard.
	applSim := sim("heater", "fan")
	crossSim := sim("heater", "smoke")
	if applSim <= crossSim {
		t.Errorf("co-hyponyms (%v) should be closer than cross-category (%v)",
			applSim, crossSim)
	}
}

func TestSentenceEmbedding(t *testing.T) {
	e := NewEncoder(64, 96)
	s := e.Sentence("turn on the light")
	if len(s) != 96 {
		t.Fatalf("sentence dim %d", len(s))
	}
	if math.Abs(mat.Norm2(s)-1) > 1e-9 {
		t.Fatal("sentence embedding must be unit norm")
	}
	// Paraphrase closer than unrelated sentence.
	para := e.Sentence("switch on the lamp")
	unrel := e.Sentence("water leak detected in basement")
	simPara := mat.CosineSimilarity(s, para)
	simUnrel := mat.CosineSimilarity(s, unrel)
	if simPara <= simUnrel {
		t.Errorf("paraphrase sim %v should exceed unrelated sim %v",
			simPara, simUnrel)
	}
	// Word order matters (bigram term).
	rev := e.Sentence("light the on turn")
	if mat.CosineSimilarity(s, rev) >= 0.9999 {
		t.Error("word order should perturb the sentence embedding")
	}
	// Empty input yields the zero vector without panicking.
	if mat.Norm2(e.Sentence("the a an")) != 0 {
		t.Error("stopword-only sentence should embed to zero")
	}
}

func TestPairEmbeddingEq1(t *testing.T) {
	e := NewEncoder(32, 48)
	a := e.PairEmbedding("motion is detected", "turn lights on")
	if len(a) != 32 {
		t.Fatalf("pair dim %d", len(a))
	}
	// Eq. (1) is additive: pair = mean(trigger words) + mean(action words).
	trigOnly := e.PairEmbedding("motion is detected", "")
	actOnly := e.PairEmbedding("", "turn lights on")
	for i := range a {
		if math.Abs(a[i]-(trigOnly[i]+actOnly[i])) > 1e-9 {
			t.Fatal("pair embedding must decompose additively per Eq. (1)")
		}
	}
}

func TestKeyPhraseEmbedding(t *testing.T) {
	e := NewEncoder(32, 48)
	v := e.KeyPhraseEmbedding("Close the water valve when a water leak is detected")
	if mat.Norm2(v) == 0 {
		t.Fatal("key-phrase embedding is zero")
	}
	if len(v) != 32 {
		t.Fatalf("dim %d", len(v))
	}
	if mat.Norm2(e.KeyPhraseEmbedding("")) != 0 {
		t.Fatal("empty rule must embed to zero")
	}
}

func TestDTWIdenticalSequences(t *testing.T) {
	e := NewEncoder(32, 48)
	seq := []string{"turn", "open", "close"}
	if got := e.ElementSimilarity(seq, seq); math.Abs(got-1) > 1e-9 {
		t.Fatalf("self DTW similarity = %v want 1", got)
	}
}

func TestDTWHandlesLengthMismatch(t *testing.T) {
	e := NewEncoder(32, 48)
	// Same verbs with a repetition: DTW should stay near 1.
	a := []string{"turn", "turn", "open"}
	b := []string{"turn", "open"}
	simRepeat := e.ElementSimilarity(a, b)
	simDiff := e.ElementSimilarity([]string{"turn", "open"}, []string{"humidity", "smoke"})
	if simRepeat <= simDiff {
		t.Fatalf("repeat sim %v should exceed different-word sim %v",
			simRepeat, simDiff)
	}
	if simRepeat < 0.8 {
		t.Fatalf("warped repeat similarity %v too low", simRepeat)
	}
}

func TestDTWEmptySequences(t *testing.T) {
	if DTWSimilarity(nil, nil) != 1 {
		t.Fatal("two empty sequences are identical")
	}
	e := NewEncoder(16, 16)
	if s := e.ElementSimilarity(nil, []string{"open"}); s <= 0 || s >= 1 {
		t.Fatalf("empty-vs-nonempty similarity %v out of (0,1)", s)
	}
}

func TestDTWSymmetryProperty(t *testing.T) {
	e := NewEncoder(16, 16)
	words := []string{"open", "close", "turn", "lock", "detect", "smoke"}
	f := func(ai, bi uint8) bool {
		a := []string{words[int(ai)%len(words)], words[int(ai/7)%len(words)]}
		b := []string{words[int(bi)%len(words)]}
		return math.Abs(e.ElementSimilarity(a, b)-e.ElementSimilarity(b, a)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHashGaussianMoments(t *testing.T) {
	v := hashGaussian("moment-test", 4096, 1.0)
	m := mat.Mean(v)
	sd := math.Sqrt(mat.Dot(v, v)/float64(len(v)) - m*m)
	if math.Abs(m) > 0.08 {
		t.Fatalf("mean %v too far from 0", m)
	}
	if math.Abs(sd-1) > 0.08 {
		t.Fatalf("std %v too far from 1", sd)
	}
}

func TestWordCaching(t *testing.T) {
	e := NewEncoder(32, 48)
	a := e.Word("valve")
	b := e.Word("valve")
	if &a[0] != &b[0] {
		t.Fatal("cache should return the same slice")
	}
}

// TestEncoderConcurrent drives every interning entry point from several
// goroutines on distinct and shared keys — ASCII and not, enough distinct
// tokens between them to fill the token table and run past its bound — and
// compares the shared texts with the reference functions. Under -race it
// fails on any table access outside the encoder's lock (a concurrent map
// write is fatal even without the detector).
func TestEncoderConcurrent(t *testing.T) {
	e, ref := NewEncoder(16, 24), NewEncoder(16, 24)
	const shared = "turn on the shared hallway light"
	const sharedSlow = "set the café thermostat to 72.5°F"
	wantSent, wantSlow := refSentence(ref, shared), refSentence(ref, sharedSlow)
	wantRule := refRuleEmbedding(ref, shared)
	wantPair := refPairEmbedding(ref, sharedSlow, shared)
	const workers, rounds, perText = 4, 100, 25 // 10,000 distinct tokens > maxTableEntries
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var own strings.Builder
				fmt.Fprintf(&own, "open valve %d when leak sensor %d trips", g, i)
				for k := 0; k < perText; k++ {
					fmt.Fprintf(&own, " dev%dx%dx%d", g, i, k)
				}
				e.Word(fmt.Sprintf("device%d_%d", g, i))
				e.Sentence(own.String())
				e.Sentence("") // the no-content-word store
				e.RuleEmbedding(own.String())
				for _, c := range []struct {
					what      string
					got, want []float64
				}{
					{"Sentence", e.Sentence(shared), wantSent},
					{"Sentence (non-ASCII)", e.Sentence(sharedSlow), wantSlow},
					{"RuleEmbedding", e.RuleEmbedding(shared), wantRule},
					{"PairEmbedding", e.PairEmbedding(sharedSlow, shared), wantPair},
				} {
					if err := sameBits(c.got, c.want); err != nil {
						t.Errorf("goroutine %d round %d: shared %s diverged: %v", g, i, c.what, err)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if n := len(e.toks); n != maxTableEntries {
		t.Errorf("token table holds %d entries after %d distinct tokens, bound %d",
			n, workers*rounds*perText, maxTableEntries)
	}
}

var sinkVec []float64

// BenchmarkRuleEmbedding is rule text → semantic block on warmed tables:
// the generated descriptions of one home per archetype, app platforms
// through RuleEmbedding and voice platforms through Sentence, as
// fusion.NodeFeature routes them. The sentence table is emptied every pass,
// so the sentence row is the cost of a sentence seen for the first time.
func BenchmarkRuleEmbedding(b *testing.B) {
	var app, voice []string
	for i, a := range rules.Archetypes() {
		for _, r := range rules.NewGenerator(int64(100+i), a, "e-").RuleSet(40) {
			if r.Platform.VoicePlatform() {
				voice = append(voice, r.Description)
			} else {
				app = append(app, r.Description)
			}
		}
	}
	e := NewEncoder(48, 64)
	b.Run("words", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sinkVec = e.RuleEmbedding(app[i%len(app)])
		}
	})
	b.Run("sentence", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(voice) == 0 {
				e.mu.Lock()
				clear(e.sentCache)
				e.mu.Unlock()
			}
			sinkVec = e.Sentence(voice[i%len(voice)])
		}
	})
}
