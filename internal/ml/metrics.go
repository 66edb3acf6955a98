// Package ml implements the classical machine-learning components the paper
// takes from scikit-learn: the four correlation-discovery classifiers of
// Fig. 3 (MLP lives in internal/nn; RandomForest, KNN and GradientBoost live
// here), the SGDClassifier that turns federated graph embeddings into
// vulnerability predictions, the IsolationForest baseline of Table II, and
// the evaluation machinery (metrics, k-fold cross-validation, grid search).
package ml

import "fexiot/internal/rng"

// Classifier is a binary classifier over dense feature vectors. Labels are
// 0 (negative) and 1 (positive).
type Classifier interface {
	Fit(x [][]float64, y []int)
	Predict(x []float64) int
	// Score returns a real-valued confidence for the positive class
	// (monotone in probability; not necessarily calibrated).
	Score(x []float64) float64
}

// Metrics holds the four headline evaluation numbers the paper reports.
type Metrics struct {
	Accuracy  float64
	Precision float64
	Recall    float64
	F1        float64

	TP, FP, TN, FN int
}

// Evaluate computes binary classification metrics for predictions vs truth.
func Evaluate(pred, truth []int) Metrics {
	if len(pred) != len(truth) {
		panic("ml: Evaluate length mismatch")
	}
	var m Metrics
	for i := range pred {
		switch {
		case pred[i] == 1 && truth[i] == 1:
			m.TP++
		case pred[i] == 1 && truth[i] == 0:
			m.FP++
		case pred[i] == 0 && truth[i] == 0:
			m.TN++
		default:
			m.FN++
		}
	}
	total := float64(len(pred))
	if total > 0 {
		m.Accuracy = float64(m.TP+m.TN) / total
	}
	if m.TP+m.FP > 0 {
		m.Precision = float64(m.TP) / float64(m.TP+m.FP)
	}
	if m.TP+m.FN > 0 {
		m.Recall = float64(m.TP) / float64(m.TP+m.FN)
	}
	if m.Precision+m.Recall > 0 {
		m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
	}
	return m
}

// PredictAll applies a classifier to every row.
func PredictAll(c Classifier, x [][]float64) []int {
	out := make([]int, len(x))
	for i, row := range x {
		out[i] = c.Predict(row)
	}
	return out
}

// KFold runs k-fold cross-validation: factory builds a fresh classifier per
// fold; the returned metrics average the per-fold results. Folds are
// shuffled deterministically by seed, matching the paper's 10-fold CV
// protocol (Fig. 3).
func KFold(factory func() Classifier, x [][]float64, y []int, k int, seed int64) Metrics {
	n := len(x)
	if n == 0 || k < 2 {
		panic("ml: KFold needs data and k ≥ 2")
	}
	if k > n {
		k = n
	}
	perm := rng.New(seed).Perm(n)
	var sum Metrics
	for fold := 0; fold < k; fold++ {
		var trainX, testX [][]float64
		var trainY, testY []int
		for i, idx := range perm {
			if i%k == fold {
				testX = append(testX, x[idx])
				testY = append(testY, y[idx])
			} else {
				trainX = append(trainX, x[idx])
				trainY = append(trainY, y[idx])
			}
		}
		c := factory()
		c.Fit(trainX, trainY)
		m := Evaluate(PredictAll(c, testX), testY)
		sum.Accuracy += m.Accuracy
		sum.Precision += m.Precision
		sum.Recall += m.Recall
		sum.F1 += m.F1
	}
	sum.Accuracy /= float64(k)
	sum.Precision /= float64(k)
	sum.Recall /= float64(k)
	sum.F1 /= float64(k)
	return sum
}
