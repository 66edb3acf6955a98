package gnn

import (
	"fmt"

	"fexiot/internal/autodiff"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// GCN is a graph convolutional network with three convolution layers (the
// configuration the paper adopts) and mean readout:
//
//	H_{l+1} = ReLU(Â · H_l · W_l),   z = mean_rows(H_L) · W_out
type GCN struct {
	InputDim  int
	HiddenDim int
	OutDim    int
	NumConv   int

	params *autodiff.ParamSet
}

// NewGCN builds a GCN with Glorot-initialised weights.
func NewGCN(inputDim, hiddenDim, outDim int, seed int64) *GCN {
	m := &GCN{InputDim: inputDim, HiddenDim: hiddenDim, OutDim: outDim, NumConv: 3}
	r := rng.New(seed)
	p := autodiff.NewParamSet()
	in := inputDim
	for l := 0; l < m.NumConv; l++ {
		p.Register(fmt.Sprintf("conv%d.w", l), l, r.Glorot(in, hiddenDim))
		p.Register(fmt.Sprintf("conv%d.b", l), l, mat.NewDense(1, hiddenDim))
		in = hiddenDim
	}
	p.Register("out.w", m.NumConv, r.Glorot(2*hiddenDim, outDim))
	m.params = p
	return m
}

// Params returns the weight set.
func (m *GCN) Params() *autodiff.ParamSet { return m.params }

// EmbedDim returns the embedding width.
func (m *GCN) EmbedDim() int { return m.OutDim }

// Fresh returns a new GCN with the same shape.
func (m *GCN) Fresh(seed int64) Model {
	return NewGCN(m.InputDim, m.HiddenDim, m.OutDim, seed)
}

// Forward builds the embedding computation for one graph.
func (m *GCN) Forward(t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph) *autodiff.Node {
	adj := g.CachedNormalizedAdjacency()
	x := t.Constant(g.CachedPadFeatures(m.InputDim))
	return m.rest(t, b, adj, m.conv(t, b, 0, t.SpMM(adj, x)))
}

// conv is convolution l after its aggregation: ReLU(agg·W_l + b_l), each
// output row from its own input row only (see GIN.mlp).
func (m *GCN) conv(t *autodiff.Tape, b *autodiff.Binder, l int, agg *autodiff.Node) *autodiff.Node {
	h := t.MatMul(agg, b.Node(fmt.Sprintf("conv%d.w", l)))
	h = t.AddRowBroadcast(h, b.Node(fmt.Sprintf("conv%d.b", l)))
	return t.ReLU(h)
}

// rest finishes the forward pass from convolution 0's output h.
func (m *GCN) rest(t *autodiff.Tape, b *autodiff.Binder, adj *mat.CSR, h *autodiff.Node) *autodiff.Node {
	for l := 1; l < m.NumConv; l++ {
		h = m.conv(t, b, l, t.SpMM(adj, h))
	}
	pooled := t.ConcatCols(t.MeanRows(h), t.MaxRows(h))
	return t.MatMul(pooled, b.Node("out.w"))
}
