// Package nn implements the neural models built on the autodiff tape: the
// multi-layer perceptron used both as a Fig. 3 correlation classifier and as
// sub-blocks of the GNNs, and the LSTM sequence model behind the DeepLog
// baseline of Table II.
package nn

import (
	"fmt"

	"fexiot/internal/autodiff"
	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// MLP is a fully connected network with ReLU hidden activations and a
// 2-way softmax head, trained with Adam on weighted cross-entropy.
type MLP struct {
	Layers []int // e.g. {in, 64, 32, 2}
	Epochs int
	LR     float64
	Batch  int
	Seed   int64
	// ClassWeights rebalances the loss; nil = uniform.
	ClassWeights []float64

	params *autodiff.ParamSet
}

// NewMLP creates an MLP; layers must start with the input dimension and end
// with 2 (binary logits).
func NewMLP(layers []int, epochs int, lr float64, seed int64) *MLP {
	return &MLP{Layers: layers, Epochs: epochs, LR: lr, Batch: 32, Seed: seed}
}

// initParams allocates weights with Glorot initialisation.
func (m *MLP) initParams() {
	r := rng.New(m.Seed)
	m.params = autodiff.NewParamSet()
	for l := 0; l+1 < len(m.Layers); l++ {
		m.params.Register(fmt.Sprintf("l%d.w", l), l, r.Glorot(m.Layers[l], m.Layers[l+1]))
		m.params.Register(fmt.Sprintf("l%d.b", l), l, mat.NewDense(1, m.Layers[l+1]))
	}
}

// forward builds the network on a tape for a batch matrix.
func (m *MLP) forward(t *autodiff.Tape, b *autodiff.Binder, x *autodiff.Node) *autodiff.Node {
	h := x
	for l := 0; l+1 < len(m.Layers); l++ {
		h = t.MatMul(h, b.Node(fmt.Sprintf("l%d.w", l)))
		h = t.AddRowBroadcast(h, b.Node(fmt.Sprintf("l%d.b", l)))
		if l+2 < len(m.Layers) {
			h = t.ReLU(h)
		}
	}
	return h
}

// Fit trains the network.
func (m *MLP) Fit(x [][]float64, y []int) {
	if len(x) == 0 {
		return
	}
	if m.Layers[0] != len(x[0]) {
		panic(fmt.Sprintf("nn: MLP input dim %d, data dim %d", m.Layers[0], len(x[0])))
	}
	m.initParams()
	opt := autodiff.NewAdam(m.LR)
	r := rng.New(m.Seed + 7)
	n := len(x)
	batch := m.Batch
	if batch > n {
		batch = n
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	// One tape, binder, gradient slab and batch buffer serve every step;
	// Reset+Rebind per batch recycles the pass's nodes and matrix backings
	// (Grads.Add copies the gradients out before the next Reset).
	tape := autodiff.NewTape()
	binder := autodiff.Bind(tape, m.params)
	grads := autodiff.NewGrads(m.params)
	var bx *mat.Dense
	by := make([]int, batch)
	for e := 0; e < m.Epochs; e++ {
		r.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		for start := 0; start < n; start += batch {
			end := start + batch
			if end > n {
				end = n
			}
			if bx == nil || bx.Rows() != end-start {
				bx = mat.NewDense(end-start, m.Layers[0])
			}
			by = by[:end-start]
			for i := start; i < end; i++ {
				bx.SetRow(i-start, x[order[i]])
				by[i-start] = y[order[i]]
			}
			tape.Reset()
			binder.Rebind(tape, m.params)
			logits := m.forward(tape, binder, tape.Constant(bx))
			loss := tape.SoftmaxCrossEntropy(logits, by, m.ClassWeights)
			tape.Backward(loss)
			grads.Reset()
			grads.Add(binder)
			autodiff.ClipGrads(grads, 5)
			opt.Step(m.params, grads)
		}
	}
}

// Logits evaluates the network on one sample.
func (m *MLP) Logits(q []float64) []float64 {
	if m.params == nil {
		return []float64{0, 0}
	}
	s := borrow(m.params)
	defer s.release()
	x := mat.NewDense(1, len(q))
	x.SetRow(0, q)
	out := m.forward(s.tape, s.binder, s.tape.Constant(x))
	return append([]float64(nil), out.Value.Row(0)...)
}

// Score returns the positive-class probability.
func (m *MLP) Score(q []float64) float64 {
	return mat.Softmax(m.Logits(q))[1]
}

// Predict thresholds Score at 0.5.
func (m *MLP) Predict(q []float64) int {
	if m.Score(q) >= 0.5 {
		return 1
	}
	return 0
}
