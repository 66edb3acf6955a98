package gnn

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"

	"fexiot/internal/explain"
	"fexiot/internal/graph"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
)

// The scorer tests compare GraphScorer with the black box it replaces:
// Detector.Score on a freshly induced subgraph.

const scorerTestDim = 6

var (
	scorerDetsOnce sync.Once
	scorerDets     []*Detector // GIN, GCN, MAGNN at tiny dimensions
)

// scorerTestGraph draws a graph of n nodes whose features are a little
// shorter or longer than the models' input width (so padding and
// truncation both happen), with duplicate edges, both directions of a pair
// and self loops among its edges.
func scorerTestGraph(r *rng.RNG, n, edges int) *graph.Graph {
	g := &graph.Graph{ID: "t"}
	for i := 0; i < n; i++ {
		f := make([]float64, scorerTestDim-2+r.Intn(5))
		for j := range f {
			f[j] = r.NormFloat64()
		}
		node := graph.Node{Feature: f}
		if r.Intn(3) == 0 {
			node.Space = graph.SentenceSpace
		}
		g.AddNode(node)
	}
	for e := 0; e < edges && n > 0; e++ {
		kind := rules.DirectMatch
		if r.Intn(2) == 0 {
			kind = rules.EnvMatch
		}
		// Appended directly: AddEdge would drop the repeats.
		g.Edges = append(g.Edges, graph.Edge{From: r.Intn(n), To: r.Intn(n), Kind: kind})
	}
	return g
}

func scorerTestDetectors() []*Detector {
	scorerDetsOnce.Do(func() {
		r := rng.New(5)
		var train []*graph.Graph
		for i := 0; i < 24; i++ {
			g := scorerTestGraph(r, 1+r.Intn(9), r.Intn(12))
			g.Label = i%2 == 0
			train = append(train, g)
		}
		for _, m := range []Model{
			NewGIN(scorerTestDim, 5, 4, 11),
			NewGCN(scorerTestDim, 5, 4, 12),
			NewMAGNN(scorerTestDim, scorerTestDim+1, 5, 4, 13),
		} {
			det := NewDetector(m, 3)
			det.FitClassifier(train)
			scorerDets = append(scorerDets, det)
		}
	})
	return scorerDets
}

// blackBoxScore is what Algorithm 2 asked of the model before the scorer.
func blackBoxScore(d *Detector, g *graph.Graph, keep []int) float64 {
	if len(keep) == 0 {
		return 0
	}
	return d.Score(g.InducedSubgraph(keep))
}

// FuzzScorer turns arbitrary bytes into a graph and a run of node subsets —
// in shuffled orders, the identity order, empty, and earlier subsets again
// in another order — and holds the scorer to the black box bit for bit,
// with every layer's memo unbounded in practice, full after two rows, and
// absent. Its graphs have at most 12 nodes; TestScorerLargeGraphs has the
// rest.
func FuzzScorer(f *testing.F) {
	f.Add([]byte{0, 5, 7, 1, 2, 3, 4, 0xff, 0x0f, 3, 0x15, 0, 9, 0xff, 0xff, 1})
	f.Add([]byte{1, 11, 20, 9, 8, 7, 0x33, 0x03, 2, 0xcc, 0x0c, 5, 0xff, 0x0f, 0})
	f.Add([]byte{2, 3, 2, 1, 0x07, 0, 0, 0x05, 0, 1})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{1, 1, 4, 6, 0x01, 0, 0, 0x01, 0, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		for len(data) < 3 {
			data = append(data, 0)
		}
		dets := scorerTestDetectors()
		det := dets[int(data[0])%len(dets)]
		n := 1 + int(data[1])%12
		r := rng.New(int64(data[2]))
		g := scorerTestGraph(r, n, int(data[2])%24)

		// Three bytes a subset: a 12-bit membership mask and a shuffle seed.
		identity := make([]int, n)
		for i := range identity {
			identity[i] = i
		}
		subsets := [][]int{identity, nil}
		for rest := data[3:]; len(rest) >= 3; rest = rest[3:] {
			mask := int(rest[0]) | int(rest[1])<<8
			var keep []int
			for i := 0; i < n; i++ {
				if mask&(1<<i) != 0 {
					keep = append(keep, i)
				}
			}
			rng.New(int64(rest[2])).Shuffle(len(keep), func(i, j int) { keep[i], keep[j] = keep[j], keep[i] })
			subsets = append(subsets, keep)
		}
		for i := len(subsets) - 1; i >= 0; i-- { // earlier sets again, reversed
			rev := append([]int(nil), subsets[i]...)
			for a, b := 0, len(rev)-1; a < b; a, b = a+1, b-1 {
				rev[a], rev[b] = rev[b], rev[a]
			}
			subsets = append(subsets, rev)
		}
		subsets = append(subsets, identity)

		for _, bound := range []int{memoMaxRows, 2, 0} {
			sc := det.Scorer(nil, g)
			sc.maxRows = bound
			for _, keep := range subsets {
				got, want := sc.Score(keep), blackBoxScore(det, g, keep)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%T bound %d keep %v: scorer %v, black box %v",
						det.Model, bound, keep, got, want)
				}
			}
			st := sc.Stats()
			sc.Release()
			if st.Calls != len(subsets) {
				t.Fatalf("%d calls counted, %d made", st.Calls, len(subsets))
			}
			for l, reused := range st.RowsReused {
				if bound == 0 && reused != 0 {
					t.Fatalf("layer %d: memo of bound 0 reused %d rows", l, reused)
				}
				if held := len(sc.layers[l].memo); held > bound {
					t.Fatalf("layer %d: memo holds %d rows past its bound %d", l, held, bound)
				}
			}
		}
	})
}

// TestScorerLargeGraphs holds the scorer to the black box on what the fuzz
// harness's 12 nodes leave out: a sparse graph of more than 64 nodes, and a
// complete graph, where every hidden-layer row reads every other member's
// and so repeats only when the whole coalition does — for GIN's three
// layers, GCN's three convolutions and MAGNN's two aggregation layers.
func TestScorerLargeGraphs(t *testing.T) {
	sparse := scorerTestGraph(rng.New(41), 70, 90)
	complete := scorerTestGraph(rng.New(43), 9, 0)
	for i := 0; i < complete.N(); i++ {
		for j := i + 1; j < complete.N(); j++ {
			complete.AddEdge(i, j, rules.DirectMatch)
		}
	}
	for _, det := range scorerTestDetectors() {
		depth := det.Model.(rowwise).depth()
		for _, g := range []*graph.Graph{sparse, complete} {
			r := rng.New(47)
			sc := det.Scorer(nil, g)
			for i := 0; i < 60; i++ {
				keep := r.Perm(g.N())[:1+r.Intn(g.N())]
				if i%3 == 2 { // a connected neighbourhood, as the search grows them
					keep = g.ComponentOf(keep[0])
					keep = keep[:1+r.Intn(len(keep))]
				}
				got, want := sc.Score(keep), blackBoxScore(det, g, keep)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%T, %d nodes, keep %v: scorer %v, black box %v", det.Model, g.N(), keep, got, want)
				}
			}
			st := sc.Stats()
			sc.Release()
			if len(st.RowsReused) != depth || st.RowsReused[depth-1] == 0 {
				t.Fatalf("%T, %d nodes: rows reused per layer %v, want %d layers, each with reuse",
					det.Model, g.N(), st.RowsReused, depth)
			}
			for l := range st.RowsReused {
				if got, want := st.RowsReused[l]+st.RowsComputed[l], st.RowsReused[0]+st.RowsComputed[0]; got != want {
					t.Fatalf("%T, %d nodes: layer %d looked up %d rows, layer 0 %d", det.Model, g.N(), l, got, want)
				}
			}
		}
	}
}

// TestScorerMemoBound: a memo at its row bound and a memo of bound 0 give
// the explanations an unbounded one gives, and only the reuse differs: at
// every layer it is none at bound 0 and no more at 7 than unbounded.
func TestScorerMemoBound(t *testing.T) {
	r := rng.New(17)
	cfg := explain.DefaultSearchConfig(3)
	for _, det := range scorerTestDetectors() {
		for i := 0; i < 12; i++ {
			g := scorerTestGraph(r, 6+r.Intn(6), 8+r.Intn(10))
			var want explain.Explanation
			var reused [3][]int
			for bi, bound := range []int{memoMaxRows, 7, 0} {
				sc := det.Scorer(nil, g)
				sc.maxRows = bound
				got, err := explain.Search(context.Background(), sc, g, cfg, explain.MethodFexIoT)
				if err != nil {
					t.Fatal(err)
				}
				reused[bi] = sc.Stats().RowsReused
				sc.Release()
				if bi == 0 {
					want = got
				} else if !reflect.DeepEqual(got.Nodes, want.Nodes) ||
					math.Float64bits(got.Score) != math.Float64bits(want.Score) {
					t.Fatalf("%T graph %d bound %d: %+v, unbounded %+v", det.Model, i, bound, got, want)
				}
			}
			for l := range reused[0] {
				if reused[2][l] != 0 || reused[1][l] > reused[0][l] {
					t.Fatalf("%T graph %d layer %d: rows reused per layer %v at bounds [max 7 0]",
						det.Model, i, l, reused)
				}
			}
		}
	}
}

// TestScorerReusesRows pins the ratio the memo exists for, per layer, on
// the two ends of what a search meets. An audit_batch-shaped graph — 30
// nodes, one 7-node component to search, the rest in components of one to
// three — repeats nearly every row at every layer: a row's key is its few
// neighbours' rows, and the other components' never change (0.97, 0.96,
// 0.95 of layers 0, 1, 2). A dense 10-node graph, all one component, is
// the unfavourable end: a hidden row there is two or three hops from most
// of the graph and changes with most coalitions — and still 0.95, 0.92,
// 0.90 are reuses, because a search asks about the same few coalitions
// again and again. What a miss costs beyond the recomputation the
// first-layer-only scorer did anyway is a key and a map insert.
func TestScorerReusesRows(t *testing.T) {
	audit := scorerTestGraph(rng.New(31), 30, 0)
	at := 0
	for _, size := range []int{7, 3, 3, 2, 2, 2, 2} { // the other nine stay alone
		for i := 1; i < size; i++ {
			audit.AddEdge(at+i-1, at+i, rules.DirectMatch)
		}
		at += size
	}
	audit.AddEdge(1, 4, rules.EnvMatch)
	audit.AddEdge(2, 6, rules.EnvMatch)
	for _, c := range []struct {
		name  string
		g     *graph.Graph
		floor []float64 // per layer
	}{
		{"audit-shaped", audit, []float64{0.85, 0.85, 0.85}},
		{"dense", scorerTestGraph(rng.New(29), 10, 14), []float64{0.8, 0.8, 0.8}},
	} {
		sc := scorerTestDetectors()[0].Scorer(NewWorkspace(), c.g)
		if _, err := explain.Search(context.Background(), sc, c.g, explain.DefaultSearchConfig(1), explain.MethodFexIoT); err != nil {
			t.Fatal(err)
		}
		st := sc.Stats()
		for l, reused := range st.RowsReused {
			total := reused + st.RowsComputed[l]
			ratio := float64(reused) / float64(total)
			t.Logf("%s layer %d: %d of %d rows reused (%.2f) over %d scores", c.name, l, reused, total, ratio, st.Calls)
			if ratio < c.floor[l] {
				t.Fatalf("%s layer %d: %.2f of rows reused, want at least %.2f", c.name, l, ratio, c.floor[l])
			}
		}
	}
}
