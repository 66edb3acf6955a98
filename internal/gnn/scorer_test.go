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
// with the memo unbounded in practice, full after two rows, and absent.
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
			if bound == 0 && st.RowsReused != 0 {
				t.Fatalf("memo of bound 0 reused %d rows", st.RowsReused)
			}
			if len(sc.memo) > bound {
				t.Fatalf("memo holds %d rows past its bound %d", len(sc.memo), bound)
			}
		}
	})
}

// TestScorerMemoBound: a memo at its row bound and a memo of bound 0 give
// the explanations an unbounded one gives, and only the reuse differs.
func TestScorerMemoBound(t *testing.T) {
	r := rng.New(17)
	cfg := explain.DefaultSearchConfig(3)
	for _, det := range scorerTestDetectors()[:2] {
		for i := 0; i < 12; i++ {
			g := scorerTestGraph(r, 6+r.Intn(6), 8+r.Intn(10))
			var want explain.Explanation
			var reused [3]int
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
			if reused[2] != 0 || reused[1] > reused[0] {
				t.Fatalf("%T graph %d: rows reused %v at bounds [max 7 0]", det.Model, i, reused)
			}
		}
	}
}

// TestScorerReusesRows pins the ratio the memo exists for on a search-sized
// graph: most first-layer rows an explanation looks up were computed before.
func TestScorerReusesRows(t *testing.T) {
	det := scorerTestDetectors()[0]
	g := scorerTestGraph(rng.New(29), 10, 14)
	sc := det.Scorer(NewWorkspace(), g)
	if _, err := explain.Search(context.Background(), sc, g, explain.DefaultSearchConfig(1), explain.MethodFexIoT); err != nil {
		t.Fatal(err)
	}
	st := sc.Stats()
	if ratio := float64(st.RowsReused) / float64(st.RowsReused+st.RowsComputed); ratio < 0.8 {
		t.Fatalf("%d of %d first-layer rows reused (%.2f) over %d scores",
			st.RowsReused, st.RowsReused+st.RowsComputed, ratio, st.Calls)
	}
}
