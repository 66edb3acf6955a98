package fusion

import (
	"fexiot/internal/embed"
	"fexiot/internal/lexicon"
	"fexiot/internal/mat"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
	"fexiot/internal/text"
)

// PairFeaturizer extracts the correlation features of §III-A1 for a pair of
// rule sentences (a's action clause vs b's trigger clause): (i) DTW
// similarity of verb elements and of object elements, (ii) one-hot lexical
// relation features, (iii) the Eq. (1) trigger-action pair embedding.
type PairFeaturizer struct {
	Encoder *embed.Encoder
	Lexicon *lexicon.Lexicon
	// EmbedDim truncates the Eq. (1) embedding appended to the handcrafted
	// features (keeps classical classifiers fast); 0 keeps the full vector.
	EmbedDim int
}

// NewPairFeaturizer builds a featurizer with the default lexicon.
func NewPairFeaturizer(enc *embed.Encoder, embedDim int) *PairFeaturizer {
	return &PairFeaturizer{Encoder: enc, Lexicon: lexicon.New(), EmbedDim: embedDim}
}

// FeatureDim returns the produced feature vector length.
func (f *PairFeaturizer) FeatureDim() int {
	d := f.Encoder.WordDim()
	if f.EmbedDim > 0 && f.EmbedDim < d {
		d = f.EmbedDim
	}
	// 2 DTW similarities + 5 relation one-hots + 1 sentence cosine + embed.
	return 8 + d
}

// Features computes the correlation feature vector for (action of a →
// trigger of b).
func (f *PairFeaturizer) Features(a, b *rules.Rule) []float64 {
	pa := text.Parse(a.Description)
	pb := text.Parse(b.Description)

	actEl := pa.Action.Elements
	trigEl := pb.Trigger.Elements
	out := make([]float64, 0, f.FeatureDim())

	// (i) Similarity features via DTW over element embeddings.
	out = append(out,
		f.Encoder.ElementSimilarity(actEl.Verbs, trigEl.Verbs),
		f.Encoder.ElementSimilarity(actEl.Objects, trigEl.Objects),
	)

	// (ii) Causal relation one-hots between the object vocabularies.
	out = append(out, f.Lexicon.RelationFeatures(actEl.Objects, trigEl.Objects)...)

	// Sentence-level cosine between the two clauses.
	sa := f.Encoder.Sentence(pa.Action.Text)
	sb := f.Encoder.Sentence(pb.Trigger.Text)
	out = append(out, mat.CosineSimilarity(sa, sb))

	// (iii) Eq. (1) pair embedding (trigger of b + action of a).
	pair := f.Encoder.PairEmbedding(pb.Trigger.Text, pa.Action.Text)
	d := len(pair)
	if f.EmbedDim > 0 && f.EmbedDim < d {
		d = f.EmbedDim
	}
	out = append(out, pair[:d]...)
	return out
}

// PairDataset materialises a labelled correlation dataset from a rule pool:
// positive examples are ground-truth action→trigger pairs, negatives are
// uncorrelated pairs. It mirrors the paper's 5,600 positive + 8,000
// negative manually-labelled pairs (§IV-B).
type PairDataset struct {
	X [][]float64
	Y []int // 1 = correlated
}

// BuildPairDataset samples nPos correlated and nNeg uncorrelated rule pairs
// from pool and featurises them. Correlated pairs are rare among random
// pairs, so positives are drawn through the pool index.
func BuildPairDataset(f *PairFeaturizer, pool []*rules.Rule, nPos, nNeg int, seed int64) *PairDataset {
	ds := &PairDataset{}
	r := rng.New(seed)
	ix := NewPoolIndex(pool)
	addPair := func(a, b *rules.Rule, label int) {
		ds.X = append(ds.X, f.Features(a, b))
		ds.Y = append(ds.Y, label)
	}
	pos := 0
	var partners []*rules.Rule
	for guard := 0; pos < nPos && guard < nPos*200; guard++ {
		a := pool[r.Intn(len(pool))]
		partners = ix.Forward(partners[:0], a)
		if len(partners) == 0 {
			continue
		}
		addPair(a, partners[r.Intn(len(partners))], 1)
		pos++
	}
	neg := 0
	for guard := 0; neg < nNeg && guard < nNeg*200; guard++ {
		a := pool[r.Intn(len(pool))]
		b := pool[r.Intn(len(pool))]
		if a == b || rules.RuleCanTrigger(a, b) != rules.NoMatch {
			continue
		}
		addPair(a, b, 0)
		neg++
	}
	return ds
}
