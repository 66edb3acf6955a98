package fusion

import (
	"sync"

	"fexiot/internal/ml"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
)

// ClassifierOracle wraps a trained action-trigger correlation classifier as
// an EdgeOracle — the deployed pipeline of §III-A3, where the ground-truth
// semantics are unavailable and a model trained on labelled pairs predicts
// which rules correlate. Because the correlation features eliminate named
// entities, the classifier cannot distinguish device instances in different
// rooms; its predictions are therefore a noisy superset of the true edges,
// exactly the labelling noise the paper's manual cross-checking step
// handles.
type ClassifierOracle struct {
	Classifier ml.Classifier
	Featurizer *PairFeaturizer
	// Threshold on the classifier score for declaring a correlation.
	Threshold float64

	// mu serialises the oracle (cache, classifier and featurizer alike):
	// BuildOnline consults it outside the builder lock, so concurrent
	// fuses reach it at once.
	mu    sync.Mutex
	cache map[[2]string]rules.MatchKind
}

// NewClassifierOracle builds the oracle around a trained classifier.
func NewClassifierOracle(c ml.Classifier, f *PairFeaturizer) *ClassifierOracle {
	return &ClassifierOracle{Classifier: c, Featurizer: f, Threshold: 0.5,
		cache: map[[2]string]rules.MatchKind{}}
}

// Oracle returns the EdgeOracle function.
func (o *ClassifierOracle) Oracle() EdgeOracle {
	return func(a, b *rules.Rule) rules.MatchKind {
		o.mu.Lock()
		defer o.mu.Unlock()
		key := [2]string{a.ID, b.ID}
		if k, ok := o.cache[key]; ok {
			return k
		}
		k := rules.NoMatch
		if o.Classifier.Score(o.Featurizer.Features(a, b)) >= o.Threshold {
			// The classifier sees text only, so it cannot tell direct from
			// environmental correlation; report the direct kind unless the
			// ground-truth semantics identify an environmental path (used
			// for edge-kind bookkeeping, not for the existence decision).
			k = rules.DirectMatch
			if gt := rules.RuleCanTrigger(a, b); gt == rules.EnvMatch {
				k = rules.EnvMatch
			}
		}
		o.cache[key] = k
		return k
	}
}

// TrainCorrelationClassifier fits the paper's default correlation model (a
// random forest, the best average performer in Fig. 3) on pairs sampled
// from the pool and returns a ready oracle.
func TrainCorrelationClassifier(f *PairFeaturizer, pool []*rules.Rule,
	nPos, nNeg int, seed int64) *ClassifierOracle {
	ds := BuildPairDataset(f, pool, nPos, nNeg, seed)
	clf := ml.NewRandomForest(40, 10, seed+1)
	clf.Fit(ds.X, ds.Y)
	return NewClassifierOracle(clf, f)
}

// EdgeAgreement measures how closely a predicted oracle reproduces the
// ground-truth edges over sampled rule pairs: precision and recall of the
// predicted correlations.
func EdgeAgreement(o EdgeOracle, pool []*rules.Rule, samples int, seed int64) (precision, recall float64) {
	ix := NewPoolIndex(pool)
	r := rng.New(seed)
	tp, fp, fn := 0, 0, 0
	// Positive pairs through the index (ground truth correlated).
	var partners []*rules.Rule
	for i := 0; i < samples; i++ {
		a := pool[r.Intn(len(pool))]
		partners = ix.Forward(partners[:0], a)
		if len(partners) == 0 {
			continue
		}
		b := partners[r.Intn(len(partners))]
		if o(a, b) != rules.NoMatch {
			tp++
		} else {
			fn++
		}
	}
	// Random pairs (overwhelmingly negative).
	for i := 0; i < samples; i++ {
		a := pool[r.Intn(len(pool))]
		b := pool[r.Intn(len(pool))]
		if a == b || rules.RuleCanTrigger(a, b) != rules.NoMatch {
			continue
		}
		if o(a, b) != rules.NoMatch {
			fp++
		}
	}
	if tp+fp > 0 {
		precision = float64(tp) / float64(tp+fp)
	}
	if tp+fn > 0 {
		recall = float64(tp) / float64(tp+fn)
	}
	return
}
