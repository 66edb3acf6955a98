package nn

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"fexiot/internal/autodiff"
	"fexiot/internal/gnn"
	"fexiot/internal/mat"
)

// TestParamSlabLayout checks every model's ParamSet is one slab in
// registration order: each parameter is a capacity-capped view of its
// range, a layer is the runs of its parameters (one run everywhere except
// GIN's readout layer, whose gin%d.out tensors are registered between the
// conv layers), clones own their slab, and LayerDiffNorms is mat.Norm2 of
// the gathered layer difference bit for bit.
func TestParamSlabLayout(t *testing.T) {
	mlp := NewMLP([]int{5, 8, 4, 2}, 1, 0.01, 1)
	mlp.initParams()
	lstm := NewLSTM(6, 5, 3, 1, 0.01, 1)
	lstm.initParams()
	// The head keeps its set unexported; only this test reads it.
	head := reflect.ValueOf(gnn.NewSupervisedHead(4, 1)).Elem().FieldByName("params").UnsafePointer()
	for _, c := range []struct {
		name string
		p    *autodiff.ParamSet
		runs []int // per layer, the runs of consecutive parameters
	}{
		{"GIN", gnn.NewGIN(7, 6, 4, 1).Params(), []int{1, 1, 1, 3}},
		{"GCN", gnn.NewGCN(7, 6, 4, 1).Params(), []int{1, 1, 1, 1}},
		{"MAGNN", gnn.NewMAGNN(7, 9, 6, 4, 1).Params(), []int{1, 1, 1, 1}},
		{"MLP", mlp.params, []int{1, 1, 1}},
		{"LSTM", lstm.params, []int{1, 1}},
		{"head", (*autodiff.ParamSet)(head), []int{1}},
	} {
		t.Run(c.name, func(t *testing.T) {
			p := c.p
			slab := p.Data()
			var concat []float64
			for _, n := range p.Names() {
				d := p.Get(n).Data()
				if cap(d) != len(d) {
					t.Fatalf("%s: view capacity %d exceeds its %d values", n, cap(d), len(d))
				}
				if &slab[len(concat)] != &d[0] {
					t.Fatalf("%s is not a view of the slab at %d", n, len(concat))
				}
				concat = append(concat, d...)
			}
			if !slices.Equal(slab, concat) || len(slab) != p.NumElements() {
				t.Fatal("slab is not the registration-order concatenation of the parameters")
			}

			// Writes go both ways; an append to a view never spills.
			names := p.Names()
			first, second := p.Get(names[0]).Data(), p.Get(names[1]).Data()
			first[0] = 42
			if slab[0] != 42 {
				t.Fatal("a write through Get does not show in the slab")
			}
			slab[len(first)] = 43
			if second[0] != 43 {
				t.Fatal("a write to the slab does not show through Get")
			}
			_ = append(first, -1)
			if second[0] != 43 {
				t.Fatal("appending to a view spilled into the next parameter")
			}

			// Layers: ranges in registration order, as the wire ships them.
			if p.NumLayers() != len(c.runs) {
				t.Fatalf("NumLayers = %d, want %d", p.NumLayers(), len(c.runs))
			}
			for l, want := range c.runs {
				var gathered []float64
				runs, prev := 0, -2
				for _, n := range p.LayerNames(l) {
					gathered = append(gathered, p.Get(n).Data()...)
					at := slices.Index(names, n)
					if at != prev+1 {
						runs++
					}
					prev = at
				}
				if runs != want {
					t.Fatalf("layer %d is %d runs, want %d", l, runs, want)
				}
				if !slices.Equal(p.FlattenLayer(l), gathered) || p.LayerElements(l) != len(gathered) {
					t.Fatalf("layer %d: FlattenLayer is not its tensors in registration order", l)
				}
			}

			// A clone owns its slab and its views.
			q := p.Clone()
			qs := q.Data()
			for i := range qs {
				qs[i] += 1e-3 * float64(i%7-3)
			}
			if slab[0] != 42 || &qs[0] == &slab[0] || &q.Get(names[0]).Data()[0] != &qs[0] {
				t.Fatal("Clone shares backing with its source")
			}

			// LayerDiffNorms ≡ Norm2 of the gathered layer difference.
			norms := p.LayerDiffNorms(q)
			diff := p.Sub(q)
			for l := range c.runs {
				if want := mat.Norm2(diff.FlattenLayer(l)); math.Float64bits(norms[l]) != math.Float64bits(want) {
					t.Fatalf("layer %d: LayerDiffNorms %v, Norm2 of the difference %v", l, norms[l], want)
				}
			}
		})
	}
}
