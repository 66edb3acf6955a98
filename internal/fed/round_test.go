package fed

import (
	"reflect"
	"testing"
)

// TestClusterRound pins the Algorithm-1 core on crafted members: which
// clusters the Eq. (3) gate splits, driven by ΔW, and what each member is
// handed back.
func TestClusterRound(t *testing.T) {
	// One-layer members: [member][layer=0].
	one := func(vs ...[]float64) [][][]float64 {
		out := make([][][]float64, len(vs))
		for i, v := range vs {
			out[i] = [][]float64{v}
		}
		return out
	}
	camps := one([]float64{1, 0}, []float64{0.9, 0.1}, []float64{-1, 0}, []float64{-0.9, -0.1})
	aligned := one([]float64{1, 0}, []float64{1, 0.01}, []float64{1, 0.02}, []float64{1, 0.03})
	cross := one([]float64{1, 0}, []float64{-1, 0}, []float64{0, 1}, []float64{0, -1})
	still := one([]float64{0, 0}, []float64{0, 0}, []float64{0, 0}, []float64{0, 0})
	oneUnknown := append(append([][][]float64{}, camps[:3]...), nil)
	oneLayerUnknown := append(append([][][]float64{}, camps[:3]...), [][]float64{nil})
	// Two layers: everyone agrees on layer 0, the camps part on layer 1.
	var twoLayer [][][]float64
	for i := range camps {
		twoLayer = append(twoLayer, [][]float64{aligned[i][0], camps[i][0]})
	}

	cases := []struct {
		name             string
		weights, updates [][][]float64
		sizes            []int
		leaves           [][]int
		// first coordinate of the last layer handed to members 0 and 2
		got0, got2 float64
	}{
		{"opposed camps split camp-by-camp", camps, camps, []int{10, 10, 10, 10},
			[][]int{{0, 1}, {2, 3}}, 0.95, -0.95},
		{"aligned updates stay whole", aligned, aligned, []int{10, 10, 10, 10},
			[][]int{{0, 1, 2, 3}}, 1, 1},
		{"stationary members stay whole however the weights lie", cross, still, []int{10, 10, 10, 10},
			[][]int{{0, 1, 2, 3}}, 0, 0},
		{"a member with unknown ΔW keeps its cluster whole", camps, oneUnknown, []int{10, 10, 10, 10},
			[][]int{{0, 1, 2, 3}}, 0, 0},
		{"an unknown layer counts as unknown", camps, oneLayerUnknown, []int{10, 10, 10, 10},
			[][]int{{0, 1, 2, 3}}, 0, 0},
		{"no ΔW at all never splits", camps, nil, []int{10, 10, 10, 10},
			[][]int{{0, 1, 2, 3}}, 0, 0},
		{"camps are weighted by data size", camps, camps, []int{30, 10, 10, 30},
			[][]int{{0, 1}, {2, 3}}, 0.975, -0.925},
		{"a split at layer 1 leaves layer 0 whole", twoLayer, twoLayer, []int{10, 10, 10, 10},
			[][]int{{0, 1}, {2, 3}}, 0.95, -0.95},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			out := ClusterRound(RoundInput{Weights: c.weights, Updates: c.updates, Sizes: c.sizes},
				0.4, 0.95, nil)
			if !reflect.DeepEqual(out.Leaves, c.leaves) {
				t.Fatalf("leaves %v, want %v", out.Leaves, c.leaves)
			}
			last := len(c.weights[0]) - 1
			const tol = 1e-12
			if d := out.Layers[0][last][0] - c.got0; d > tol || d < -tol {
				t.Fatalf("member 0 got %v, want %v", out.Layers[0][last][0], c.got0)
			}
			if d := out.Layers[2][last][0] - c.got2; d > tol || d < -tol {
				t.Fatalf("member 2 got %v, want %v", out.Layers[2][last][0], c.got2)
			}
			// Members of one leaf share every layer's aggregate.
			for _, leaf := range out.Leaves {
				for _, i := range leaf[1:] {
					if !reflect.DeepEqual(out.Layers[i], out.Layers[leaf[0]]) {
						t.Fatalf("members %d and %d of one leaf differ", leaf[0], i)
					}
				}
			}
			if last == 1 && !reflect.DeepEqual(out.Layers[0][0], out.Layers[2][0]) {
				t.Fatalf("layer 0 was split: %v vs %v", out.Layers[0][0], out.Layers[2][0])
			}
		})
	}
}
