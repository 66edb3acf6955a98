package autodiff

import (
	"fmt"
	"math"

	"fexiot/internal/mat"
)

// SumAll reduces a node to its 1×1 element sum.
func (t *Tape) SumAll(a *Node) *Node {
	out := t.op(1, 1, a.needs, backSumAll)
	out.a = a
	out.Value.Set(0, 0, a.Value.Sum())
	return out
}

func backSumAll(out *Node) {
	a := out.a
	if !a.needs {
		return
	}
	ensureGrad(a)
	g := out.Grad.At(0, 0)
	d := a.Grad.Data()
	for i := range d {
		d[i] += g
	}
}

// AddConst returns a + c element-wise for a constant scalar c.
func (t *Tape) AddConst(a *Node, c float64) *Node {
	r, cc := a.Value.Dims()
	out := t.op(r, cc, a.needs, backAddConst)
	out.a = a
	out.scalar = c
	od, ad := out.Value.Data(), a.Value.Data()
	for i := range od {
		od[i] = ad[i] + c
	}
	return out
}

func backAddConst(out *Node) {
	if out.a.needs {
		ensureGrad(out.a)
		out.a.Grad.AddScaled(out.Grad, 1)
	}
}

// SoftmaxCrossEntropy computes the mean weighted cross-entropy between
// logits (n×C) and integer labels, with per-class weights (nil for uniform).
// This is the "weighted cross-entropy loss ... according to the inverse
// ratio to class frequencies" used by the paper for class imbalance. labels
// and classWeights are caller-owned and must stay valid until Reset.
func (t *Tape) SoftmaxCrossEntropy(logits *Node, labels []int, classWeights []float64) *Node {
	n, c := logits.Value.Dims()
	if len(labels) != n {
		panic(fmt.Sprintf("autodiff: %d labels for %d logits rows", len(labels), n))
	}
	out := t.op(1, 1, logits.needs, backSoftmaxCrossEntropy)
	out.a = logits
	out.idx = labels
	out.weights = classWeights
	// The softmax probabilities are needed again in backward; they live in
	// the node's leased auxiliary buffer and die at Reset.
	out.ahdr.Remake(n, c, t.arena.Lease(n*c))
	out.hasAux = true
	probs := &out.ahdr
	var loss float64
	var wsum float64
	for i := 0; i < n; i++ {
		p := probs.Row(i)
		mat.SoftmaxTo(p, logits.Value.Row(i))
		w := 1.0
		if classWeights != nil {
			w = classWeights[labels[i]]
		}
		wsum += w
		loss -= w * math.Log(math.Max(p[labels[i]], 1e-12))
	}
	if wsum == 0 {
		wsum = 1
	}
	loss /= wsum
	out.scalar = wsum
	out.Value.Set(0, 0, loss)
	return out
}

func backSoftmaxCrossEntropy(out *Node) {
	logits := out.a
	if !logits.needs {
		return
	}
	ensureGrad(logits)
	n, c := logits.Value.Dims()
	labels, classWeights, wsum := out.idx, out.weights, out.scalar
	g := out.Grad.At(0, 0)
	for i := 0; i < n; i++ {
		w := 1.0
		if classWeights != nil {
			w = classWeights[labels[i]]
		}
		gi := logits.Grad.Row(i)
		pi := out.ahdr.Row(i)
		for j := 0; j < c; j++ {
			d := pi[j]
			if j == labels[i] {
				d -= 1
			}
			gi[j] += g * w * d / wsum
		}
	}
}

// ContrastiveLoss implements Eq. (2) of the paper for a pair of graph
// embeddings za, zb (each 1×d):
//
//	L = d²·(1−y) + max(0, k − d²)·y
//
// where d is the Euclidean distance, y=1 when the two graphs come from
// different classes and y=0 when they share a class, and k is the margin.
func (t *Tape) ContrastiveLoss(za, zb *Node, differentClass bool, margin float64) *Node {
	diff := t.Sub(za, zb)
	sq := t.Hadamard(diff, diff)
	d2 := t.SumAll(sq)
	if !differentClass {
		return d2
	}
	neg := t.Scale(d2, -1)
	shifted := t.AddConst(neg, margin)
	return t.ReLU(shifted)
}
