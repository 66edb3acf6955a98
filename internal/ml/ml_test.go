package ml

import (
	"math"
	"testing"
	"testing/quick"

	"fexiot/internal/rng"
)

// blobs builds a linearly separable 2-cluster dataset with optional overlap
// noise.
func blobs(n int, noise float64, seed int64) ([][]float64, []int) {
	r := rng.New(seed)
	var x [][]float64
	var y []int
	for i := 0; i < n; i++ {
		label := i % 2
		cx, cy := 2.0, 2.0
		if label == 0 {
			cx, cy = -2.0, -2.0
		}
		x = append(x, []float64{
			cx + r.NormFloat64()*noise,
			cy + r.NormFloat64()*noise,
		})
		y = append(y, label)
	}
	return x, y
}

// xorData builds the XOR dataset, non-linearly separable.
func xorData(n int, seed int64) ([][]float64, []int) {
	r := rng.New(seed)
	var x [][]float64
	var y []int
	for i := 0; i < n; i++ {
		a := r.Float64()*2 - 1
		b := r.Float64()*2 - 1
		label := 0
		if (a > 0) != (b > 0) {
			label = 1
		}
		x = append(x, []float64{a, b})
		y = append(y, label)
	}
	return x, y
}

// newTree is a lone tree as a forest grows one: every feature, no bootstrap.
func newTree(maxDepth int) *DecisionTree {
	return &DecisionTree{MaxDepth: maxDepth, MinSamples: 2}
}

// depth is the tree depth below n (0 for a lone leaf).
func depth(n *treeNode) int {
	if n == nil || n.isLeaf {
		return 0
	}
	return 1 + max(depth(n.left), depth(n.right))
}

func TestEvaluateKnownConfusion(t *testing.T) {
	pred := []int{1, 1, 0, 0, 1}
	truth := []int{1, 0, 0, 1, 1}
	m := Evaluate(pred, truth)
	if m.TP != 2 || m.FP != 1 || m.TN != 1 || m.FN != 1 {
		t.Fatalf("confusion %+v", m)
	}
	if math.Abs(m.Accuracy-0.6) > 1e-12 {
		t.Fatalf("accuracy %v", m.Accuracy)
	}
	if math.Abs(m.Precision-2.0/3) > 1e-12 || math.Abs(m.Recall-2.0/3) > 1e-12 {
		t.Fatalf("precision/recall %+v", m)
	}
	if math.Abs(m.F1-2.0/3) > 1e-12 {
		t.Fatalf("f1 %v", m.F1)
	}
}

func TestEvaluateDegenerate(t *testing.T) {
	m := Evaluate([]int{0, 0}, []int{0, 0})
	if m.Accuracy != 1 || m.Precision != 0 || m.Recall != 0 || m.F1 != 0 {
		t.Fatalf("all-negative metrics %+v", m)
	}
}

func TestClassifiersSeparateBlobs(t *testing.T) {
	x, y := blobs(200, 0.5, 1)
	teX, teY := x[150:], y[150:]
	trX, trY := x[:150], y[:150]
	cases := map[string]Classifier{
		"knn":    NewKNN(5),
		"tree":   newTree(6),
		"forest": NewRandomForest(20, 6, 7),
		"gboost": NewGradientBoost(30, 3, 0.2),
		"sgd":    NewSGDClassifier(50, 0.1, 3),
	}
	for name, c := range cases {
		c.Fit(trX, trY)
		m := Evaluate(PredictAll(c, teX), teY)
		if m.Accuracy < 0.95 {
			t.Errorf("%s accuracy on blobs = %v", name, m.Accuracy)
		}
	}
}

func TestNonlinearModelsSolveXOR(t *testing.T) {
	x, y := xorData(400, 5)
	trX, trY := x[:300], y[:300]
	teX, teY := x[300:], y[300:]
	nonlinear := map[string]Classifier{
		"knn":    NewKNN(7),
		"tree":   newTree(8),
		"forest": NewRandomForest(30, 8, 11),
		"gboost": NewGradientBoost(60, 3, 0.3),
	}
	for name, c := range nonlinear {
		c.Fit(trX, trY)
		m := Evaluate(PredictAll(c, teX), teY)
		if m.Accuracy < 0.85 {
			t.Errorf("%s accuracy on XOR = %v", name, m.Accuracy)
		}
	}
	// Linear SGD must fail on XOR — sanity check that the task is nonlinear.
	sgd := NewSGDClassifier(50, 0.1, 3)
	sgd.Fit(trX, trY)
	if m := Evaluate(PredictAll(sgd, teX), teY); m.Accuracy > 0.8 {
		t.Errorf("linear model should not solve XOR, got %v", m.Accuracy)
	}
}

func TestKFoldAveragesReasonably(t *testing.T) {
	x, y := blobs(120, 0.4, 9)
	m := KFold(func() Classifier { return NewKNN(3) }, x, y, 10, 42)
	if m.Accuracy < 0.95 || m.F1 < 0.95 {
		t.Fatalf("10-fold metrics %+v", m)
	}
}

func TestDecisionTreeDepthBound(t *testing.T) {
	x, y := xorData(300, 17)
	tree := newTree(3)
	tree.Fit(x, y)
	if d := depth(tree.root); d > 3 {
		t.Fatalf("depth %d exceeds bound", d)
	}
}

func TestDecisionTreePureLeafShortCircuit(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}}
	y := []int{1, 1, 1}
	tree := newTree(5)
	tree.Fit(x, y)
	if depth(tree.root) != 0 {
		t.Fatal("pure dataset should produce a lone leaf")
	}
	if tree.Predict([]float64{9}) != 1 {
		t.Fatal("pure-leaf prediction")
	}
}

func TestSGDClassWeights(t *testing.T) {
	// Highly imbalanced data: class weights should raise recall on the
	// minority class.
	r := rng.New(3)
	var x [][]float64
	var y []int
	for i := 0; i < 400; i++ {
		if i%20 == 0 {
			x = append(x, []float64{1.0 + r.NormFloat64()*0.6})
			y = append(y, 1)
		} else {
			x = append(x, []float64{-0.4 + r.NormFloat64()*0.6})
			y = append(y, 0)
		}
	}
	plain := NewSGDClassifier(40, 0.1, 5)
	plain.Fit(x, y)
	weighted := NewSGDClassifier(40, 0.1, 5)
	weighted.ClassWeights = []float64{1, 20}
	weighted.Fit(x, y)
	mp := Evaluate(PredictAll(plain, x), y)
	mw := Evaluate(PredictAll(weighted, x), y)
	if mw.Recall <= mp.Recall {
		t.Fatalf("class weights should raise recall: plain %v weighted %v",
			mp.Recall, mw.Recall)
	}
}

func TestIsolationForestFlagsOutliers(t *testing.T) {
	r := rng.New(21)
	var x [][]float64
	for i := 0; i < 300; i++ {
		x = append(x, []float64{r.NormFloat64() * 0.5, r.NormFloat64() * 0.5})
	}
	f := NewIsolationForest(100, 128, 3)
	f.Fit(x, nil)
	inlier := f.Score([]float64{0, 0})
	outlier := f.Score([]float64{8, -8})
	if outlier <= inlier {
		t.Fatalf("outlier score %v should exceed inlier score %v", outlier, inlier)
	}
	if f.Predict([]float64{8, -8}) != 1 {
		t.Fatalf("far outlier not flagged (score %v)", outlier)
	}
	if f.Predict([]float64{0, 0}) != 0 {
		t.Fatalf("centre flagged as anomaly (score %v)", inlier)
	}
}

func TestKNNScoreBounds(t *testing.T) {
	x, y := blobs(60, 0.4, 31)
	c := NewKNN(5)
	c.Fit(x, y)
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		s := c.Score([]float64{a, b})
		return s >= 0 && s <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestGradientBoostProbabilityBounds(t *testing.T) {
	x, y := blobs(100, 0.5, 37)
	b := NewGradientBoost(20, 3, 0.3)
	b.Fit(x, y)
	for _, q := range x {
		s := b.Score(q)
		if s < 0 || s > 1 || math.IsNaN(s) {
			t.Fatalf("score %v out of range", s)
		}
	}
}

func TestEmptyFitSafety(t *testing.T) {
	// Fitting on empty data must not panic, and prediction stays defined.
	for _, c := range []Classifier{
		newTree(3), NewRandomForest(5, 3, 1),
		NewGradientBoost(5, 2, 0.1), NewSGDClassifier(5, 0.1, 1),
	} {
		c.Fit(nil, nil)
		_ = c.Score([]float64{1, 2})
	}
}

// TestGradientBoostDegenerateLabels is the regression test for the initial
// log-odds bias: an all-one-class training set sits at the clamp boundary,
// and the fitted ensemble must stay finite and keep predicting the only
// class it has ever seen.
func TestGradientBoostDegenerateLabels(t *testing.T) {
	x, _ := blobs(40, 0.3, 5)
	for _, class := range []int{0, 1} {
		y := make([]int, len(x))
		for i := range y {
			y[i] = class
		}
		b := NewGradientBoost(10, 3, 0.3)
		b.Fit(x, y)
		if math.IsInf(b.bias, 0) || math.IsNaN(b.bias) {
			t.Fatalf("class %d: degenerate labels produced non-finite bias %v", class, b.bias)
		}
		for _, q := range x {
			s := b.Score(q)
			if math.IsNaN(s) || s < 0 || s > 1 {
				t.Fatalf("class %d: score %v out of range on degenerate fit", class, s)
			}
			if b.Predict(q) != class {
				t.Fatalf("class %d: predicted %d after seeing only class %d",
					class, b.Predict(q), class)
			}
		}
	}
}
