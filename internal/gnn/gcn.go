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
	names  []gcnNames // per convolution, formatted once, as GIN's are
}

// gcnNames are one convolution's parameter names.
type gcnNames struct{ w, b string }

// NewGCN builds a GCN with Glorot-initialised weights.
func NewGCN(inputDim, hiddenDim, outDim int, seed int64) *GCN {
	m := &GCN{InputDim: inputDim, HiddenDim: hiddenDim, OutDim: outDim, NumConv: 3}
	r := rng.New(seed)
	p := autodiff.NewParamSet()
	in := inputDim
	for l := 0; l < m.NumConv; l++ {
		n := gcnNames{w: fmt.Sprintf("conv%d.w", l), b: fmt.Sprintf("conv%d.b", l)}
		m.names = append(m.names, n)
		p.Register(n.w, l, r.Glorot(in, hiddenDim))
		p.Register(n.b, l, mat.NewDense(1, hiddenDim))
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
	return forward(m, t, b, g)
}

// layer is convolution l after its aggregation: ReLU(Â·H·W_l + b_l), each
// output row from its own aggregated row only (see GIN.layer). Convolution
// 0 aggregates rows the input map has already multiplied by W_0.
func (m *GCN) layer(l int, t *autodiff.Tape, b *autodiff.Binder, agg aggs) *autodiff.Node {
	h := agg[0]
	if l > 0 {
		h = t.MatMul(h, b.Node(m.names[l].w))
	}
	h = t.AddRowBroadcast(h, b.Node(m.names[l].b))
	return t.ReLU(h)
}

// readout pools the last convolution's output; the ones below it add nothing.
func (m *GCN) readout(l int, t *autodiff.Tape, b *autodiff.Binder, h, _ *autodiff.Node) *autodiff.Node {
	if l < m.NumConv-1 {
		return nil
	}
	pooled := t.ConcatCols(t.MeanRows(h), t.MaxRows(h))
	return t.MatMul(pooled, b.Node("out.w"))
}
