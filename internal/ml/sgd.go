package ml

import (
	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// SGDClassifier is a linear model trained with stochastic gradient descent
// on logistic loss with L2 regularisation — the scikit-learn component each
// FexIoT client uses to classify federated graph embeddings as normal or
// vulnerable (§III-B1), and the linear explanation model g(z') = Wz' that
// kernel SHAP regresses against (Eq. 6).
type SGDClassifier struct {
	Epochs int
	LR     float64
	L2     float64
	Seed   int64

	// ClassWeights rebalances the loss per class {w0, w1}; nil = uniform.
	ClassWeights []float64

	w []float64
	b float64
}

// NewSGDClassifier creates a classifier with sensible defaults.
func NewSGDClassifier(epochs int, lr float64, seed int64) *SGDClassifier {
	return &SGDClassifier{Epochs: epochs, LR: lr, L2: 1e-4, Seed: seed}
}

// Fit trains with SGD over shuffled epochs.
func (c *SGDClassifier) Fit(x [][]float64, y []int) {
	if len(x) == 0 {
		return
	}
	d := len(x[0])
	c.w = make([]float64, d)
	c.b = 0
	r := rng.New(c.Seed)
	order := make([]int, len(x))
	for i := range order {
		order[i] = i
	}
	for e := 0; e < c.Epochs; e++ {
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		// Step-size decay keeps late epochs stable.
		lr := c.LR / (1 + 0.05*float64(e))
		for _, i := range order {
			p := mat.Sigmoid(mat.Dot(c.w, x[i]) + c.b)
			grad := p - float64(y[i])
			if c.ClassWeights != nil {
				grad *= c.ClassWeights[y[i]]
			}
			for j, xj := range x[i] {
				c.w[j] -= lr * (grad*xj + c.L2*c.w[j])
			}
			c.b -= lr * grad
		}
	}
}

// Score returns the positive-class probability.
func (c *SGDClassifier) Score(q []float64) float64 {
	if c.w == nil {
		return 0.5
	}
	return mat.Sigmoid(mat.Dot(c.w, q) + c.b)
}

// Predict thresholds Score at 0.5.
func (c *SGDClassifier) Predict(q []float64) int {
	if c.Score(q) >= 0.5 {
		return 1
	}
	return 0
}

// Clone returns a deep copy of the classifier, including the fitted
// weights. Serving snapshots freeze classifier state with it so a later
// Fit on the original can never reach into an in-flight request.
func (c *SGDClassifier) Clone() *SGDClassifier {
	out := *c
	out.w = append([]float64(nil), c.w...)
	out.ClassWeights = append([]float64(nil), c.ClassWeights...)
	return &out
}
