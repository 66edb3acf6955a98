// Package embed provides the semantic text encoders FexIoT uses for node
// features and correlation features: word embeddings (the paper uses the
// 300-d spaCy en_core_web_lg vectors), a sentence encoder (the paper uses
// the 512-d Universal Sentence Encoder), the dynamic-time-warping similarity
// between element sequences, and the trigger-action pair embedding of
// Eq. (1).
//
// Substitution note (DESIGN.md): embeddings are built deterministically from
// the IoT lexicon — words sharing a synset receive nearly identical vectors,
// words linked by hypernymy share components, and unrelated words are
// near-orthogonal in expectation. This preserves the only property the
// downstream learners rely on: semantic proximity in vector space.
package embed

import (
	"hash/fnv"
	"math"
	"sync"

	"fexiot/internal/lexicon"
	"fexiot/internal/mat"
	"fexiot/internal/text"
)

// Encoder produces deterministic word and sentence embeddings. It memoises
// aggressively behind a mutex, so it is safe for concurrent use: the
// serving engine fuses request rules into graphs from many goroutines at
// once, and every embedding is a pure function of its key, so concurrent
// fills converge on identical vectors. Cached slices are shared — callers
// must treat returned vectors as read-only (every call site copies or
// accumulates into its own buffer).
type Encoder struct {
	wordDim     int
	sentenceDim int
	lex         *lexicon.Lexicon

	mu        sync.Mutex
	wordCache map[string][]float64
	sentCache map[string][]float64
}

// Default dimensions follow the paper: 300-d word vectors, 512-d sentence
// vectors. Experiments may construct smaller encoders for speed; the
// geometry is preserved at any dimension.
const (
	PaperWordDim     = 300
	PaperSentenceDim = 512
)

// NewEncoder creates an encoder with the given word and sentence dimensions.
func NewEncoder(wordDim, sentenceDim int) *Encoder {
	return &Encoder{
		wordDim:     wordDim,
		sentenceDim: sentenceDim,
		lex:         lexicon.New(),
		wordCache:   map[string][]float64{},
		sentCache:   map[string][]float64{},
	}
}

// WordDim returns the word embedding dimensionality.
func (e *Encoder) WordDim() int { return e.wordDim }

// SentenceDim returns the sentence embedding dimensionality.
func (e *Encoder) SentenceDim() int { return e.sentenceDim }

// hashGaussian fills a deterministic pseudo-Gaussian vector for key using a
// counter-mode FNV hash; the same key always yields the same vector.
func hashGaussian(key string, dim int, scale float64) []float64 {
	out := make([]float64, dim)
	h := fnv.New64a()
	h.Write([]byte(key))
	seed := h.Sum64()
	s := seed
	next := func() float64 {
		// xorshift64* stream.
		s ^= s >> 12
		s ^= s << 25
		s ^= s >> 27
		v := s * 2685821657736338717
		return float64(v>>11) / float64(1<<53) // uniform [0,1)
	}
	for i := 0; i < dim; i += 2 {
		// Box-Muller transform.
		u1 := next()
		for u1 == 0 {
			u1 = next()
		}
		u2 := next()
		r := math.Sqrt(-2 * math.Log(u1))
		out[i] = scale * r * math.Cos(2*math.Pi*u2)
		if i+1 < dim {
			out[i+1] = scale * r * math.Sin(2*math.Pi*u2)
		}
	}
	return out
}

// wordAt computes the embedding of w at an arbitrary dimension.
func (e *Encoder) wordAt(w string, dim int) []float64 {
	canon := e.lex.Canonical(w)
	vec := hashGaussian("synset:"+canon, dim, 1.0)
	// Share mass with ancestor concepts so hyponyms cluster under their
	// hypernyms (sensor kinds near "sensor", appliances near "appliance").
	weight := 0.6
	for _, parent := range e.lex.HypernymChain(canon) {
		mat.Axpy(vec, hashGaussian("concept:"+parent, dim, 1.0), weight)
		weight *= 0.5
	}
	// Small surface-form residual distinguishes synonyms without separating
	// them.
	mat.Axpy(vec, hashGaussian("surface:"+w, dim, 1.0), 0.15)
	// L2-normalise, matching pretrained embedding conventions.
	n := mat.Norm2(vec)
	if n > 0 {
		for i := range vec {
			vec[i] /= n
		}
	}
	return vec
}

// Word returns the word embedding (wordDim) for w, cached.
func (e *Encoder) Word(w string) []float64 {
	e.mu.Lock()
	if v, ok := e.wordCache[w]; ok {
		e.mu.Unlock()
		return v
	}
	e.mu.Unlock()
	// Compute outside the lock: wordAt is a pure function of (w, dim), so
	// two goroutines racing on a miss produce identical vectors and either
	// may win the cache slot.
	v := e.wordAt(w, e.wordDim)
	e.mu.Lock()
	e.wordCache[w] = v
	e.mu.Unlock()
	return v
}

// WordsMatrix stacks the embeddings of words into a len(words)×wordDim
// matrix.
func (e *Encoder) WordsMatrix(words []string) *mat.Dense {
	m := mat.NewDense(len(words), e.wordDim)
	for i, w := range words {
		m.SetRow(i, e.Word(w))
	}
	return m
}

// KeyPhraseEmbedding encodes a rule by averaging the word embeddings of its
// extracted key phrases (the paper's treatment of verbose app descriptions:
// "encoding key phrases can better model interaction logic").
func (e *Encoder) KeyPhraseEmbedding(rule string) []float64 {
	words := text.KeyPhrases(rule)
	out := make([]float64, e.wordDim)
	if len(words) == 0 {
		return out
	}
	for _, w := range words {
		mat.Axpy(out, e.Word(w), 1/float64(len(words)))
	}
	return out
}

// Sentence returns the sentence embedding (sentenceDim) of s: a frequency-
// weighted mean of word vectors at sentence dimension with a bigram-order
// term, the stand-in for the Universal Sentence Encoder used on concise
// voice-assistant commands.
func (e *Encoder) Sentence(s string) []float64 {
	e.mu.Lock()
	if v, ok := e.sentCache[s]; ok {
		e.mu.Unlock()
		return v
	}
	e.mu.Unlock()
	toks := text.Tokenize(s)
	out := make([]float64, e.sentenceDim)
	var content []string
	for _, w := range toks {
		if text.IsStopword(w) {
			continue
		}
		lemma := text.Lemmatize(w)
		mat.Axpy(out, e.wordAt(lemma, e.sentenceDim), 1)
		content = append(content, lemma)
	}
	if len(content) == 0 {
		e.storeSentence(s, out)
		return out
	}
	for i := range out {
		out[i] /= float64(len(content))
	}
	// Order-sensitive bigram mixing over consecutive content words keeps
	// "light on if motion" distinct from "motion on if light".
	for i := 0; i+1 < len(content); i++ {
		bg := hashGaussian("bigram:"+content[i]+"_"+content[i+1], e.sentenceDim, 1.0)
		mat.Axpy(out, bg, 0.1/float64(len(content)))
	}
	n := mat.Norm2(out)
	if n > 0 {
		for i := range out {
			out[i] /= n
		}
	}
	e.storeSentence(s, out)
	return out
}

// storeSentence fills the sentence cache under the lock. As with Word, the
// vector was computed outside it: racing misses on one sentence produce
// identical vectors and either may win the slot.
func (e *Encoder) storeSentence(s string, v []float64) {
	e.mu.Lock()
	e.sentCache[s] = v
	e.mu.Unlock()
}

// PairEmbedding implements Eq. (1): the trigger-action pair embedding is the
// mean of the trigger-sentence word embeddings plus the mean of the
// action-sentence word embeddings.
func (e *Encoder) PairEmbedding(trigger, action string) []float64 {
	out := make([]float64, e.wordDim)
	addMean := func(s string) {
		toks := text.Tokenize(s)
		var words []string
		for _, w := range toks {
			if !text.IsStopword(w) {
				words = append(words, text.Lemmatize(w))
			}
		}
		if len(words) == 0 {
			return
		}
		for _, w := range words {
			mat.Axpy(out, e.Word(w), 1/float64(len(words)))
		}
	}
	addMean(trigger)
	addMean(action)
	return out
}

// RuleEmbedding encodes a rule description for GNN node features: the mean
// embedding over all content lemmas, *including* location entities. Unlike
// the correlation features (which eliminate entities so room names do not
// fake correlations), node features must keep locations — whether two rules
// command the same kitchen light or different lights decides whether their
// interaction is vulnerable.
func (e *Encoder) RuleEmbedding(rule string) []float64 {
	toks := text.Tokenize(rule)
	out := make([]float64, e.wordDim)
	n := 0
	for _, w := range toks {
		if text.IsStopword(w) {
			continue
		}
		mat.Axpy(out, e.Word(text.Lemmatize(w)), 1)
		n++
	}
	if n > 0 {
		for i := range out {
			out[i] /= float64(n)
		}
	}
	return out
}

// HashVector returns the deterministic pseudo-Gaussian unit vector for an
// arbitrary key — the primitive behind instance-signature node features.
func HashVector(key string, dim int) []float64 {
	v := hashGaussian(key, dim, 1)
	n := mat.Norm2(v)
	if n > 0 {
		for i := range v {
			v[i] /= n
		}
	}
	return v
}

// Similarity returns the cosine similarity of the embeddings of two words.
func (e *Encoder) Similarity(a, b string) float64 {
	return mat.CosineSimilarity(e.Word(a), e.Word(b))
}
