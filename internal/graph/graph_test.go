package graph

import (
	"math"
	"testing"

	"fexiot/internal/rules"
)

// chain builds a path graph 0→1→…→n-1 with dim-1 features.
func chain(n int) *Graph {
	g := &Graph{ID: "chain"}
	for i := 0; i < n; i++ {
		g.AddNode(Node{Feature: []float64{float64(i)}})
	}
	for i := 0; i+1 < n; i++ {
		g.AddEdge(i, i+1, rules.DirectMatch)
	}
	return g
}

func TestAddEdgeDeduplicates(t *testing.T) {
	g := chain(3)
	before := len(g.Edges)
	g.AddEdge(0, 1, rules.DirectMatch)
	if len(g.Edges) != before {
		t.Fatal("duplicate edge added")
	}
}

func TestAddEdgeBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	chain(2).AddEdge(0, 5, rules.DirectMatch)
}

func TestNeighborsInOut(t *testing.T) {
	g := chain(3)
	if out := g.Out(0); len(out) != 1 || out[0] != 1 {
		t.Fatalf("Out(0) = %v", out)
	}
	nb := g.Neighbors(1)
	if len(nb) != 2 {
		t.Fatalf("Neighbors(1) = %v", nb)
	}
}

func TestHasCycle(t *testing.T) {
	g := chain(4)
	if g.HasCycle() {
		t.Fatal("chain has no cycle")
	}
	g.AddEdge(3, 0, rules.DirectMatch)
	if !g.HasCycle() {
		t.Fatal("cycle not detected")
	}
}

func TestNormalizedAdjacency(t *testing.T) {
	g := chain(3)
	a := g.NormalizedAdjacency()
	r, c := a.Dims()
	if r != 3 || c != 3 {
		t.Fatalf("dims %dx%d", r, c)
	}
	d := a.ToDense()
	// Symmetric.
	if !d.Equalish(a.T().ToDense(), 1e-12) {
		t.Fatal("normalised adjacency must be symmetric")
	}
	// Node 1 has degree 3 (self + two neighbours); self-loop weight 1/3.
	if math.Abs(d.At(1, 1)-1.0/3) > 1e-12 {
		t.Fatalf("Â[1,1] = %v", d.At(1, 1))
	}
	// Off-diagonal (0,1): 1/sqrt(2*3).
	if math.Abs(d.At(0, 1)-1/math.Sqrt(6)) > 1e-12 {
		t.Fatalf("Â[0,1] = %v", d.At(0, 1))
	}
}

func TestSumAdjacency(t *testing.T) {
	g := chain(2)
	a := g.SumAdjacency(0.5).ToDense()
	if a.At(0, 0) != 1.5 || a.At(1, 1) != 1.5 {
		t.Fatalf("self weight: %v", a)
	}
	if a.At(0, 1) != 1 || a.At(1, 0) != 1 {
		t.Fatalf("neighbour weight: %v", a)
	}
}

func TestPadFeatures(t *testing.T) {
	g := chain(3)
	p := g.PadFeatures(4)
	if p.Rows() != 3 || p.Cols() != 4 || p.At(2, 0) != 2 || p.At(2, 3) != 0 {
		t.Fatalf("pad: %v", p)
	}
	// Mixed dims pad (or truncate) to one width.
	g.Nodes[0].Feature = []float64{1, 2}
	if p := g.PadFeatures(1); p.Cols() != 1 || p.At(0, 0) != 1 {
		t.Fatalf("truncate: %v", p)
	}
}

func TestInducedSubgraphProperty(t *testing.T) {
	g := chain(5)
	g.AddEdge(0, 3, rules.EnvMatch)
	sub := g.InducedSubgraph([]int{0, 1, 3})
	if sub.N() != 3 {
		t.Fatalf("sub nodes %d", sub.N())
	}
	// Edges 0→1 and 0→3 survive (remapped), 1→2 and 3→4 don't.
	if len(sub.Edges) != 2 {
		t.Fatalf("sub edges %v", sub.Edges)
	}
	for _, e := range sub.Edges {
		if e.From >= 3 || e.To >= 3 {
			t.Fatalf("unremapped edge %v", e)
		}
	}
}

func TestConnectedAndComponent(t *testing.T) {
	g := chain(3)
	if !g.ConnectedUndirected() {
		t.Fatal("chain is connected")
	}
	g.AddNode(Node{Feature: []float64{9}})
	if g.ConnectedUndirected() {
		t.Fatal("isolated node breaks connectivity")
	}
	comp := g.ComponentOf(0)
	if len(comp) != 3 {
		t.Fatalf("component %v", comp)
	}
	if len(g.ComponentOf(3)) != 1 {
		t.Fatal("isolated component size")
	}
	empty := &Graph{}
	if !empty.ConnectedUndirected() {
		t.Fatal("empty graph is trivially connected")
	}
}

func TestCachedOperatorsMatchFresh(t *testing.T) {
	g := chain(4)
	if !g.CachedNormalizedAdjacency().ToDense().Equalish(g.NormalizedAdjacency().ToDense(), 0) {
		t.Fatal("cached normalized adjacency differs")
	}
	if !g.CachedSumAdjacency(0.1).ToDense().Equalish(g.SumAdjacency(0.1).ToDense(), 0) {
		t.Fatal("cached sum adjacency differs")
	}
	if !g.CachedPadFeatures(3).Equalish(g.PadFeatures(3), 0) {
		t.Fatal("cached features differ")
	}
	// Cache returns the same object.
	if g.CachedNormalizedAdjacency() != g.CachedNormalizedAdjacency() {
		t.Fatal("cache not memoising")
	}
	// Invalidation rebuilds after mutation.
	old := g.CachedNormalizedAdjacency()
	g.AddEdge(0, 3, rules.EnvMatch)
	g.InvalidateCache()
	fresh := g.CachedNormalizedAdjacency()
	if fresh == old {
		t.Fatal("invalidation did not drop the cache")
	}
	if fresh.NNZ() == old.NNZ() {
		t.Fatal("rebuilt operator should reflect the new edge")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	g := chain(6)
	done := make(chan bool)
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 50; j++ {
				g.CachedNormalizedAdjacency()
				g.CachedSumAdjacency(0.1)
				g.CachedPadFeatures(4)
			}
			done <- true
		}()
	}
	for i := 0; i < 8; i++ {
		<-done
	}
}
