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
	"unicode/utf8"

	"fexiot/internal/lexicon"
	"fexiot/internal/mat"
	"fexiot/internal/text"
)

// Encoder produces deterministic word and sentence embeddings. Every
// vector is a pure function of its text, so what it computes it interns,
// in four tables behind one mutex, each bounded at maxTableEntries:
//
//   - toks: raw lower-cased token → stopword flag, lemma, and the lemma's
//     vector at word and at sentence width (each filled on first use), so
//     rule text is lemmatised and hashed into Gaussians once per distinct
//     token, not once per occurrence;
//   - wordCache: word → word-width vector, behind Word;
//   - bigrams: consecutive content-lemma pair → the sentence encoder's
//     order-sensitive mixing vector;
//   - sentCache: whole sentence → its sentence embedding.
//
// A full table stops growing: a lookup that misses computes its vector and
// returns it without storing, and keys longer than maxTokenLen (tokens) or
// maxSentenceKeyLen (sentences) are never stored, so neither the number nor
// the size of request texts can grow the encoder. Results never depend on
// what is stored.
//
// The encoder is safe for concurrent use — the serving engine fuses request
// rules into graphs from many goroutines at once. A sentence takes the lock
// once to resolve all its tokens; a miss is computed outside the lock, and
// since racing misses produce identical vectors either may win the slot.
// Interned slices are shared — callers must treat returned vectors as
// read-only (every call site copies or accumulates into its own buffer).
type Encoder struct {
	wordDim     int
	sentenceDim int
	lex         *lexicon.Lexicon

	mu        sync.Mutex
	toks      map[string]*token
	wordCache map[string][]float64
	bigrams   map[bigram][]float64
	sentCache map[string][]float64
}

// token is what the encoder knows about one raw lower-cased token. stop and
// lemma never change once the token exists; word and sent are written once,
// under the encoder lock.
type token struct {
	stop  bool
	lemma string
	word  []float64 // Word(lemma), nil until a word-width caller asks
	sent  []float64 // the lemma at sentence width, nil until Sentence asks
}

// bigram keys the mixing vector of two consecutive content lemmas.
type bigram struct{ first, second string }

const (
	// maxTableEntries bounds each of the encoder's tables. The rule language
	// has a few hundred distinct tokens and a deployment a few thousand
	// distinct voice commands; the bound only matters for text a client
	// makes up.
	maxTableEntries = 8192
	// maxTokenLen is the longest token the scanner lower-cases in place and
	// the longest the token table stores.
	maxTokenLen = 64
	// maxSentenceKeyLen is the longest sentence the sentence table stores.
	maxSentenceKeyLen = 512
)

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
		toks:        map[string]*token{},
		wordCache:   map[string][]float64{},
		bigrams:     map[bigram][]float64{},
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

// Word returns the word embedding (wordDim) for w, interned.
func (e *Encoder) Word(w string) []float64 {
	e.mu.Lock()
	v, ok := e.wordCache[w]
	e.mu.Unlock()
	if ok {
		return v
	}
	v = e.wordAt(w, e.wordDim)
	if len(w) > maxTokenLen {
		return v
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return intern(e.wordCache, w, v)
}

// intern returns the table's vector for k: the one a racing miss stored
// first, else v — stored unless the table is full.
func intern[K comparable](table map[K][]float64, k K, v []float64) []float64 {
	if cur, ok := table[k]; ok {
		return cur
	}
	if len(table) < maxTableEntries {
		table[k] = v
	}
	return v
}

// lemmaVec is one content token of a text: its lemma and the lemma's vector
// at the width asked for.
type lemmaVec struct {
	lemma string
	vec   []float64
}

// content appends the content tokens of s — every token but the stopwords,
// in order — to dst, resolving each through the token table. The scanner
// reproduces text.Tokenize on ASCII without building strings: letters and
// digits lower-cased into a stack buffer, a '.' kept after a digit,
// everything else a separator. A non-ASCII byte or a token longer than the
// buffer sends the whole text through text.Tokenize instead.
func (e *Encoder) content(dst []lemmaVec, s string, sentence bool) []lemmaVec {
	e.mu.Lock()
	defer e.mu.Unlock()
	base := len(dst)
	var buf [maxTokenLen]byte
	n := 0
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= utf8.RuneSelf:
			return e.contentSlow(dst[:base], s, sentence)
		case 'A' <= c && c <= 'Z':
			c += 'a' - 'A'
		case 'a' <= c && c <= 'z', '0' <= c && c <= '9':
		case c == '.' && n > 0 && '0' <= buf[n-1] && buf[n-1] <= '9':
			// Keep decimal points inside numbers ("72.5").
		default:
			if n > 0 {
				dst = e.appendToken(dst, buf[:n], sentence)
				n = 0
			}
			continue
		}
		if n == len(buf) {
			return e.contentSlow(dst[:base], s, sentence)
		}
		buf[n] = c
		n++
	}
	if n > 0 {
		dst = e.appendToken(dst, buf[:n], sentence)
	}
	return dst
}

// contentSlow is content over text.Tokenize's tokens, tokenising outside
// the lock it is called and returns with.
func (e *Encoder) contentSlow(dst []lemmaVec, s string, sentence bool) []lemmaVec {
	e.mu.Unlock()
	toks := text.Tokenize(s)
	e.mu.Lock()
	for _, w := range toks {
		dst = e.appendToken(dst, []byte(w), sentence)
	}
	return dst
}

// appendToken appends the token spelled w, unless it is a stopword. Called
// with the lock held.
func (e *Encoder) appendToken(dst []lemmaVec, w []byte, sentence bool) []lemmaVec {
	t := e.toks[string(w)]
	if t == nil || !t.stop && *t.vec(sentence) == nil {
		t = e.resolve(string(w), t, sentence)
	}
	if t.stop {
		return dst
	}
	return append(dst, lemmaVec{t.lemma, *t.vec(sentence)})
}

func (t *token) vec(sentence bool) *[]float64 {
	if sentence {
		return &t.sent
	}
	return &t.word
}

// resolve returns key's token with the vector of the asked width filled,
// creating the token when t is nil. Called with the lock held; it lemmatises
// and computes the vector outside it, then stores what the table has room
// for.
func (e *Encoder) resolve(key string, t *token, sentence bool) *token {
	e.mu.Unlock()
	if t == nil {
		t = &token{stop: text.IsStopword(key)}
		if !t.stop {
			t.lemma = text.Lemmatize(key)
		}
	}
	var v []float64
	switch {
	case t.stop:
	case sentence:
		v = e.wordAt(t.lemma, e.sentenceDim)
	default:
		v = e.Word(t.lemma)
	}
	e.mu.Lock()
	if cur := e.toks[key]; cur != nil {
		t = cur
	} else if len(key) <= maxTokenLen && len(e.toks) < maxTableEntries {
		e.toks[key] = t
	}
	if slot := t.vec(sentence); *slot == nil {
		*slot = v
	}
	return t
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
	v, ok := e.sentCache[s]
	e.mu.Unlock()
	if ok {
		return v
	}
	var cbuf [contentBuf]lemmaVec
	var mbuf [contentBuf][]float64
	content := e.content(cbuf[:0], s, true)
	out := make([]float64, e.sentenceDim)
	for _, c := range content {
		mat.Axpy(out, c.vec, 1)
	}
	if len(content) > 0 {
		for i := range out {
			out[i] /= float64(len(content))
		}
		// Order-sensitive bigram mixing over consecutive content words keeps
		// "light on if motion" distinct from "motion on if light".
		for _, bg := range e.mixing(mbuf[:0], content) {
			mat.Axpy(out, bg, 0.1/float64(len(content)))
		}
		n := mat.Norm2(out)
		if n > 0 {
			for i := range out {
				out[i] /= n
			}
		}
	}
	if len(s) > maxSentenceKeyLen {
		return out
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return intern(e.sentCache, s, out)
}

// contentBuf sizes the stack buffers a text's content tokens are gathered
// in; a longer text spills to the heap.
const contentBuf = 24

// mixing appends the bigram vector of every consecutive pair of content
// lemmas to dst, under one hold of the lock but for the misses, which are
// computed outside it.
func (e *Encoder) mixing(dst [][]float64, content []lemmaVec) [][]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	for i := 0; i+1 < len(content); i++ {
		k := bigram{content[i].lemma, content[i+1].lemma}
		v, ok := e.bigrams[k]
		if !ok {
			e.mu.Unlock()
			v = hashGaussian("bigram:"+k.first+"_"+k.second, e.sentenceDim, 1.0)
			e.mu.Lock()
			if len(k.first) <= maxTokenLen && len(k.second) <= maxTokenLen {
				v = intern(e.bigrams, k, v)
			}
		}
		dst = append(dst, v)
	}
	return dst
}

// PairEmbedding implements Eq. (1): the trigger-action pair embedding is the
// mean of the trigger-sentence word embeddings plus the mean of the
// action-sentence word embeddings.
func (e *Encoder) PairEmbedding(trigger, action string) []float64 {
	out := make([]float64, e.wordDim)
	var buf [contentBuf]lemmaVec
	for _, s := range [...]string{trigger, action} {
		content := e.content(buf[:0], s, false)
		for _, c := range content {
			mat.Axpy(out, c.vec, 1/float64(len(content)))
		}
	}
	return out
}

// RuleEmbedding encodes a rule description for GNN node features: the mean
// embedding over all content lemmas, *including* location entities. Unlike
// the correlation features (which eliminate entities so room names do not
// fake correlations), node features must keep locations — whether two rules
// command the same kitchen light or different lights decides whether their
// interaction is vulnerable.
func (e *Encoder) RuleEmbedding(rule string) []float64 {
	out := make([]float64, e.wordDim)
	e.RuleEmbeddingInto(out, rule)
	return out
}

// RuleEmbeddingInto accumulates RuleEmbedding(rule) into dst, which must be
// zero and wordDim long — the head of a node feature, say.
func (e *Encoder) RuleEmbeddingInto(dst []float64, rule string) {
	var buf [contentBuf]lemmaVec
	content := e.content(buf[:0], rule, false)
	for _, c := range content {
		mat.Axpy(dst, c.vec, 1)
	}
	if n := len(content); n > 0 {
		for i := range dst {
			dst[i] /= float64(n)
		}
	}
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
