package embed

import (
	"fexiot/internal/mat"
	"fexiot/internal/text"
)

// The text → vector functions of commit 71646be, kept verbatim (receivers
// renamed to a parameter, refSentence's cache lookup and store dropped) as
// the oracle the interned path in embed.go is compared against: every call
// tokenises through a strings.Builder, lemmatises every occurrence and
// recomputes every sentence-width and bigram vector.

func refRuleEmbedding(e *Encoder, rule string) []float64 {
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

func refSentence(e *Encoder, s string) []float64 {
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
	return out
}

func refPairEmbedding(e *Encoder, trigger, action string) []float64 {
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
