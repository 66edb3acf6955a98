package ml

import (
	"sort"

	"fexiot/internal/rng"
)

// treeNode is one node of a CART decision tree.
type treeNode struct {
	feature  int
	thresh   float64
	left     *treeNode
	right    *treeNode
	leafProb float64 // positive-class probability at a leaf
	isLeaf   bool
}

// DecisionTree is a CART binary classification tree with Gini impurity.
type DecisionTree struct {
	MaxDepth    int
	MinSamples  int
	MaxFeatures int // 0 = all features; forests pass sqrt(d)
	Seed        int64

	root *treeNode
}

// Fit grows the tree on the dataset.
func (t *DecisionTree) Fit(x [][]float64, y []int) {
	t.FitWeighted(x, y, nil)
}

// FitWeighted grows the tree honouring optional per-sample weights (used by
// boosting-style callers and bootstrap training).
func (t *DecisionTree) FitWeighted(x [][]float64, y []int, w []float64) {
	if len(x) == 0 {
		t.root = &treeNode{isLeaf: true, leafProb: 0.5}
		return
	}
	if w == nil {
		w = make([]float64, len(x))
		for i := range w {
			w[i] = 1
		}
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	r := rng.New(t.Seed + 1)
	t.root = t.grow(x, y, w, idx, 0, r)
}

func weightedPosProb(y []int, w []float64, idx []int) float64 {
	var pos, total float64
	for _, i := range idx {
		total += w[i]
		if y[i] == 1 {
			pos += w[i]
		}
	}
	if total == 0 {
		return 0.5
	}
	return pos / total
}

func gini(p float64) float64 { return 2 * p * (1 - p) }

func (t *DecisionTree) grow(x [][]float64, y []int, w []float64, idx []int, depth int, r *rng.RNG) *treeNode {
	p := weightedPosProb(y, w, idx)
	if depth >= t.MaxDepth || len(idx) < t.MinSamples || p == 0 || p == 1 {
		return &treeNode{isLeaf: true, leafProb: p}
	}
	d := len(x[0])
	features := make([]int, d)
	for i := range features {
		features[i] = i
	}
	if t.MaxFeatures > 0 && t.MaxFeatures < d {
		r.Shuffle(d, func(i, j int) { features[i], features[j] = features[j], features[i] })
		features = features[:t.MaxFeatures]
	}

	bestGain := -1.0
	bestFeat := -1
	bestThresh := 0.0
	parentImp := gini(p)
	var totalW float64
	for _, i := range idx {
		totalW += w[i]
	}

	type pair struct {
		v float64
		i int
	}
	vals := make([]pair, len(idx))
	for _, f := range features {
		for k, i := range idx {
			vals[k] = pair{v: x[i][f], i: i}
		}
		sort.Slice(vals, func(a, b int) bool { return vals[a].v < vals[b].v })
		// Sweep split points between distinct values.
		var leftW, leftPos float64
		var rightW, rightPos float64
		for _, pr := range vals {
			rightW += w[pr.i]
			if y[pr.i] == 1 {
				rightPos += w[pr.i]
			}
		}
		for k := 0; k+1 < len(vals); k++ {
			i := vals[k].i
			leftW += w[i]
			rightW -= w[i]
			if y[i] == 1 {
				leftPos += w[i]
				rightPos -= w[i]
			}
			if vals[k].v == vals[k+1].v {
				continue
			}
			if leftW == 0 || rightW == 0 {
				continue
			}
			pl := leftPos / leftW
			prr := rightPos / rightW
			imp := (leftW*gini(pl) + rightW*gini(prr)) / totalW
			gain := parentImp - imp
			if gain > bestGain {
				bestGain = gain
				bestFeat = f
				bestThresh = (vals[k].v + vals[k+1].v) / 2
			}
		}
	}
	if bestFeat < 0 || bestGain <= 1e-12 {
		return &treeNode{isLeaf: true, leafProb: p}
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if x[i][bestFeat] <= bestThresh {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) == 0 || len(rightIdx) == 0 {
		return &treeNode{isLeaf: true, leafProb: p}
	}
	return &treeNode{
		feature: bestFeat,
		thresh:  bestThresh,
		left:    t.grow(x, y, w, leftIdx, depth+1, r),
		right:   t.grow(x, y, w, rightIdx, depth+1, r),
	}
}

// Score returns the positive-class probability at the reached leaf.
func (t *DecisionTree) Score(q []float64) float64 {
	n := t.root
	if n == nil {
		return 0.5
	}
	for !n.isLeaf {
		if q[n.feature] <= n.thresh {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.leafProb
}

// Predict thresholds Score at 0.5.
func (t *DecisionTree) Predict(q []float64) int {
	if t.Score(q) >= 0.5 {
		return 1
	}
	return 0
}
