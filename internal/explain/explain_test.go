package explain

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"fexiot/internal/graph"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
)

// planted builds an 8-node chain graph where nodes 2 and 3 form the
// "vulnerable core": the score function fires iff both survive masking.
// Each node carries its original index as its feature so the black-box
// score can identify nodes after subgraph extraction.
func planted() (*graph.Graph, ScoreFunc) {
	g := &graph.Graph{}
	for i := 0; i < 8; i++ {
		g.AddNode(graph.Node{Feature: []float64{float64(i)}})
	}
	for i := 0; i+1 < 8; i++ {
		g.AddEdge(i, i+1, rules.DirectMatch)
	}
	h := func(sub *graph.Graph) float64 {
		has2, has3 := false, false
		for _, n := range sub.Nodes {
			switch n.Feature[0] {
			case 2:
				has2 = true
			case 3:
				has3 = true
			}
		}
		if has2 && has3 {
			return 0.95
		}
		return 0.05
	}
	return g, h
}

func hasAll(sub []int, want ...int) bool {
	in := map[int]bool{}
	for _, v := range sub {
		in[v] = true
	}
	for _, w := range want {
		if !in[w] {
			return false
		}
	}
	return true
}

func TestKernelSHAPFindsResponsibleSubgraph(t *testing.T) {
	g, h := planted()
	core := KernelSHAP(h, g, []int{2, 3}, 24, 1)
	offCore := KernelSHAP(h, g, []int{5, 6}, 24, 1)
	if core <= offCore {
		t.Fatalf("core SHAP %v should exceed off-core %v", core, offCore)
	}
	if core <= 0 {
		t.Fatalf("core SHAP %v should be positive", core)
	}
}

func TestShapleyValueAgreesOnPlanted(t *testing.T) {
	g, h := planted()
	shapley := func(sub []int) float64 {
		return newEvaluator(blackBox{h, g}, g.N()).shapleyValue(sub, 60, rng.New(1))
	}
	core, offCore := shapley([]int{2, 3}), shapley([]int{5, 6})
	if core <= offCore {
		t.Fatalf("core Shapley %v should exceed off-core %v", core, offCore)
	}
}

func TestSHAPEfficiencyProperty(t *testing.T) {
	// Σφ over a full partition ≈ h(G) − h(∅). Single-player case: treating
	// ALL nodes as the subgraph must give exactly that difference.
	g, h := planted()
	all := make([]int, g.N())
	for i := range all {
		all[i] = i
	}
	phi := KernelSHAP(h, g, all, 8, 3)
	want := h(g) - h(g.InducedSubgraph(nil))
	if math.Abs(phi-want) > 1e-6 {
		t.Fatalf("efficiency violated: φ=%v want %v", phi, want)
	}
}

func TestSearchMethodsRecoverPlantedCore(t *testing.T) {
	g, h := planted()
	cfg := DefaultSearchConfig(7)
	cfg.MinNodes = 2
	cfg.Iterations = 4
	for name, method := range map[string]Method{
		"fexiot":    MethodFexIoT,
		"subgraphx": MethodSubgraphX,
		"mcts_gnn":  MethodMCTSGNN,
	} {
		ex := blackBoxSearch(h, g, cfg, method)
		if len(ex.Nodes) == 0 {
			t.Fatalf("%s returned empty explanation", name)
		}
		if !hasAll(ex.Nodes, 2, 3) {
			t.Errorf("%s missed the planted core: %v", name, ex.Nodes)
		}
		// Explanations must be connected subgraphs.
		if !connectedSubset(g, ex.Nodes) {
			t.Errorf("%s explanation disconnected: %v", name, ex.Nodes)
		}
	}
}

func TestFidelityAndSparsity(t *testing.T) {
	g, h := planted()
	// Removing the core from the graph drops the prediction: fidelity high.
	fidCore := Fidelity(h, g, []int{2, 3})
	fidOff := Fidelity(h, g, []int{5, 6})
	if fidCore <= fidOff {
		t.Fatalf("core fidelity %v should exceed off-core %v", fidCore, fidOff)
	}
	if math.Abs(fidCore-0.9) > 1e-9 {
		t.Fatalf("core fidelity %v want 0.9", fidCore)
	}
	// Sparsity bounds and monotonicity.
	if s := Sparsity(g, []int{2, 3}); math.Abs(s-0.75) > 1e-9 {
		t.Fatalf("sparsity %v want 0.75", s)
	}
	if Sparsity(g, nil) != 1 {
		t.Fatal("empty explanation has sparsity 1")
	}
	all := []int{0, 1, 2, 3, 4, 5, 6, 7}
	if Sparsity(g, all) != 0 {
		t.Fatal("full explanation has sparsity 0")
	}
}

func TestFidelityBoundsProperty(t *testing.T) {
	g, h := planted()
	f := func(mask uint8) bool {
		var sub []int
		for i := 0; i < g.N(); i++ {
			if mask&(1<<uint(i)) != 0 {
				sub = append(sub, i)
			}
		}
		fid := Fidelity(h, g, sub)
		sp := Sparsity(g, sub)
		return fid >= -1 && fid <= 1 && sp >= 0 && sp <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChildrenKeepConnectivity(t *testing.T) {
	g, _ := planted() // chain 0-…-7
	sub := []int{0, 1, 2, 3}
	s := newSearcher(context.Background(), nil, adjacency(g), DefaultSearchConfig(1), MethodFexIoT)
	s.children(sub, 0)
	// Only the endpoints can be pruned from a path without disconnecting.
	if len(s.ss) != 2 {
		t.Fatalf("children count %d want 2: %v", len(s.ss), s.ss)
	}
	for _, k := range s.ss {
		if !connectedSubset(g, k.sub) {
			t.Fatalf("disconnected child %v", k.sub)
		}
		if len(k.sub) != 3 {
			t.Fatalf("child size %d", len(k.sub))
		}
	}
	if s.children([]int{4}, 0); len(s.ss) != 0 {
		t.Fatal("singleton has no children")
	}
}

func TestSearchRespectsMinNodes(t *testing.T) {
	g, h := planted()
	cfg := DefaultSearchConfig(3)
	cfg.MinNodes = 3
	ex := FexIoTExplain(h, g, cfg)
	if len(ex.Nodes) < cfg.MinNodes {
		t.Fatalf("explanation size %d below MinNodes %d", len(ex.Nodes), cfg.MinNodes)
	}
}

func TestSearchOnTinyGraphs(t *testing.T) {
	g := &graph.Graph{}
	g.AddNode(graph.Node{Feature: []float64{1}})
	h := func(sub *graph.Graph) float64 { return float64(sub.N()) }
	ex := FexIoTExplain(h, g, DefaultSearchConfig(1))
	if len(ex.Nodes) != 1 {
		t.Fatalf("tiny graph explanation %v", ex.Nodes)
	}
	empty := &graph.Graph{}
	ex = FexIoTExplain(h, empty, DefaultSearchConfig(1))
	if len(ex.Nodes) != 0 {
		t.Fatal("empty graph should yield empty explanation")
	}
}

func TestRootComponentPicksLargest(t *testing.T) {
	g := &graph.Graph{}
	for i := 0; i < 5; i++ {
		g.AddNode(graph.Node{Feature: []float64{0}})
	}
	g.AddEdge(0, 1, rules.DirectMatch)
	g.AddEdge(2, 3, rules.DirectMatch)
	g.AddEdge(3, 4, rules.DirectMatch)
	root := rootComponent(adjacency(g))
	if len(root) != 3 || !hasAll(root, 2, 3, 4) {
		t.Fatalf("root component %v", root)
	}
}
