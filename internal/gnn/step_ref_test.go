package gnn

import (
	"math"
	"testing"

	"fexiot/internal/autodiff"
	"fexiot/internal/graph"
	"fexiot/internal/rng"
)

// The step tests compare one optimiser step — every drawn graph forwarded
// once on one tape over one projection of the step's distinct node rows —
// with the loop it replaced, kept here as the reference: a tape per
// contrastive pair, each pair's graphs forwarded on it, the pair's
// gradients added into the slab.

// stepTol is the relative L2 distance within which the two must agree:
// they sum the same gradient terms in different orders.
const stepTol = 1e-12

// pairStep is one step's contrastive pairs.
type pairStep struct {
	pairs [][2]*graph.Graph
	diff  []bool
}

// refGrads is the per-pair loop: each parameter's gradient summed over the
// pairs, nil for a parameter no pair touched, and the batch loss.
func refGrads(m Model, st pairStep) (map[string][]float64, float64) {
	tape := autodiff.NewTape()
	binder := autodiff.Bind(tape, m.Params())
	sum := map[string][]float64{}
	batchLoss := 0.0
	for k, p := range st.pairs {
		tape.Reset()
		binder.Rebind(tape, m.Params())
		za := m.Forward(tape, binder, p[0])
		zb := m.Forward(tape, binder, p[1])
		loss := tape.Scale(tape.ContrastiveLoss(za, zb, st.diff[k], margin), 1/float64(len(st.pairs)))
		batchLoss += loss.Value.At(0, 0)
		tape.Backward(loss)
		for _, name := range m.Params().Names() {
			if g := binder.Node(name).Grad; g != nil {
				if sum[name] == nil {
					sum[name] = make([]float64, len(g.Data()))
				}
				for i, v := range g.Data() {
					sum[name][i] += v
				}
			}
		}
	}
	return sum, batchLoss
}

// stepGrads is Workspace.backward over the same pairs: each parameter's
// gradient on the step's tape, nil for one the step did not touch.
func stepGrads(m Model, st pairStep) (map[string][]float64, float64) {
	ws := NewWorkspace()
	ws.grads = autodiff.NewGrads(m.Params())
	for _, p := range st.pairs {
		ws.step.draw(p[0])
		ws.step.draw(p[1])
	}
	t := ws.tape
	loss := ws.backward(m, nil, len(st.pairs), func(s *step, k int) *autodiff.Node {
		return t.ContrastiveLoss(s.emb(2*k), s.emb(2*k+1), st.diff[k], margin)
	})
	out := map[string][]float64{}
	for _, name := range m.Params().Names() {
		if g := ws.binder.Node(name).Grad; g != nil {
			out[name] = append([]float64(nil), g.Data()...)
		}
	}
	return out, loss
}

// relDist is ‖a − b‖ / ‖b‖ over every parameter.
func relDist(a, b map[string][]float64) float64 {
	var d, n float64
	for name, w := range b {
		for i, v := range w {
			d += (a[name][i] - v) * (a[name][i] - v)
			n += v * v
		}
	}
	if n == 0 {
		return math.Sqrt(d)
	}
	return math.Sqrt(d / n)
}

// wordOnly is g induced on its word-space nodes.
func wordOnly(g *graph.Graph) *graph.Graph {
	var keep []int
	for i, n := range g.Nodes {
		if n.Space != graph.SentenceSpace {
			keep = append(keep, i)
		}
	}
	return g.InducedSubgraph(keep)
}

// sharedRows counts the nodes of gs whose row another node of gs repeats.
func sharedRows(gs ...*graph.Graph) int {
	var all []*graph.Node
	for _, g := range gs {
		for i := range g.Nodes {
			all = append(all, &g.Nodes[i])
		}
	}
	n := 0
	for i, a := range all {
		for j, b := range all {
			if i != j && sameRow(a, b) {
				n++
				break
			}
		}
	}
	return n
}

// TestStepMatchesPerPairLoop holds one step's gradients and loss to the
// per-pair loop's, for GIN, GCN and MAGNN, on: a pair of a graph with
// itself; graphs that share node rows (generated from one rule pool, and a
// graph with a subgraph of itself); a graph with no row shared with any
// other; and, for MAGNN, a step whose graphs have no sentence-space node,
// where both leave the sentence projection untouched.
func TestStepMatchesPerPairLoop(t *testing.T) {
	gs := testGraphs(t, 6)
	sub := gs[1].InducedSubgraph([]int{0, 2, 3})
	lone := scorerTestGraph(rng.New(3), 7, 9) // random features: no row shared
	for i := range lone.Nodes {               // at the models' input width
		lone.Nodes[i].Feature = append(lone.Nodes[i].Feature, make([]float64, featDim)...)[:featDim]
	}
	if sharedRows(gs...) == 0 || sharedRows(gs[1], sub) == 0 {
		t.Fatal("the generated graphs share no node rows")
	}
	if n := sharedRows(append([]*graph.Graph{lone}, gs...)...) - sharedRows(gs...); n != 0 {
		t.Fatalf("the lone graph shares %d rows", n)
	}
	w0, w1 := wordOnly(gs[0]), wordOnly(gs[2])
	steps := map[string]pairStep{
		"self pair":   {pairs: [][2]*graph.Graph{{gs[0], gs[0]}}, diff: []bool{false}},
		"shared rows": {pairs: [][2]*graph.Graph{{gs[0], gs[1]}, {gs[1], sub}, {gs[2], gs[0]}, {gs[3], gs[3]}, {gs[4], gs[5]}}, diff: []bool{true, false, false, false, true}},
		"lone graph":  {pairs: [][2]*graph.Graph{{lone, gs[2]}, {gs[3], lone}, {lone, lone}}, diff: []bool{false, true, false}},
		"word only":   {pairs: [][2]*graph.Graph{{w0, w1}, {w1, w1}}, diff: []bool{true, false}},
	}
	for name, m := range modelsUnderTest() {
		for sname, st := range steps {
			want, wantLoss := refGrads(m, st)
			got, gotLoss := stepGrads(m, st)
			if len(got) != len(want) {
				t.Errorf("%s, %s: the step touched %d parameters, the per-pair loop %d", name, sname, len(got), len(want))
			}
			for p := range want {
				if got[p] == nil {
					t.Errorf("%s, %s: the step left %s untouched", name, sname, p)
				}
			}
			if d := relDist(got, want); !(d <= stepTol) {
				t.Errorf("%s, %s: gradients %.3g apart (relative L2), want ≤ %g", name, sname, d, stepTol)
			}
			if d := math.Abs(gotLoss-wantLoss) / max(math.Abs(wantLoss), 1e-300); !(d <= stepTol) {
				t.Errorf("%s, %s: loss %v, per-pair loop %v", name, sname, gotLoss, wantLoss)
			}
			if sname == "word only" && name == "magnn" && want["proj.sent"] != nil {
				t.Errorf("magnn, %s: the per-pair loop touched proj.sent", sname)
			}
		}
	}
}

// aggregateFirst is GIN's or GCN's forward as it was before the input map
// projected: layer 0 aggregates the padded features, (S·X)·W, and the
// layers above it run as before.
func aggregateFirst(m rowwise, t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph, inputDim int, w string) *autodiff.Node {
	ops, _ := m.operators(g)
	x := t.Constant(g.CachedPadFeatures(inputDim))
	var h, out *autodiff.Node
	for l := 0; l < m.depth(); l++ {
		var agg aggs
		if l == 0 {
			agg[0] = t.MatMul(t.SpMM(ops[0], x), b.Node(w))
		} else {
			agg[0] = t.SpMM(ops[0], h)
		}
		h = m.layer(l, t, b, agg)
		out = m.readout(l, t, b, h, out)
	}
	return out
}

// TestProjectFirstMatchesAggregateFirst holds GIN's and GCN's embeddings,
// which aggregate projected rows, S·(X·W), to the aggregate-first
// (S·X)·W they reassociate.
func TestProjectFirstMatchesAggregateFirst(t *testing.T) {
	gin, gcn := NewGIN(featDim, 16, 8, 2), NewGCN(featDim, 16, 8, 1)
	for _, c := range []struct {
		m rowwise
		w string
	}{{gin, gin.names[0].w1}, {gcn, gcn.names[0].w}} {
		for _, g := range testGraphs(t, 8) {
			got := Embed(c.m, g)
			tape := autodiff.NewTape()
			want := aggregateFirst(c.m, tape, autodiff.Bind(tape, c.m.Params()), g, featDim, c.w).Value.Row(0)
			var d, n float64
			for i := range want {
				d += (got[i] - want[i]) * (got[i] - want[i])
				n += want[i] * want[i]
			}
			if r := math.Sqrt(d / n); !(r <= stepTol) {
				t.Fatalf("%T: project-first embedding %.3g from aggregate-first (relative L2)", c.m, r)
			}
		}
	}
}
