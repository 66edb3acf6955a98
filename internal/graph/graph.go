// Package graph defines the IoT interaction graph of Definition 1: nodes
// are automation rules with embedding features, directed edges are
// action→trigger causal correlations between rules, and each graph carries
// a binary vulnerability label. It also provides the structural operations
// the rest of the system needs — normalised adjacency operators for GNNs and
// subgraph extraction for the explainer.
package graph

import (
	"fmt"
	"math"
	"sync"

	"fexiot/internal/mat"
	"fexiot/internal/rules"
)

// FeatureSpace tags which encoder produced a node's features; the paper's
// heterogeneous dataset mixes 300-d word-embedding nodes with 512-d
// sentence-embedding nodes (§IV-A).
type FeatureSpace int

// The two node feature spaces.
const (
	WordSpace FeatureSpace = iota
	SentenceSpace
)

// Node is an automation rule inside an interaction graph.
type Node struct {
	Rule    *rules.Rule
	Feature []float64
	Space   FeatureSpace
}

// Edge is a directed action→trigger correlation: From's action triggers
// To's condition.
type Edge struct {
	From, To int
	Kind     rules.MatchKind
}

// Graph is an interaction graph sample.
type Graph struct {
	ID    string
	Nodes []Node
	Edges []Edge

	// Label is true when the graph contains at least one interaction
	// vulnerability. Tags name the vulnerability types present.
	Label bool
	Tags  []string

	// Online marks graphs fused with real-time event logs (§III-A3).
	Online bool

	cacheOnce sync.Once
	cached    *structCache
}

// N returns the node count.
func (g *Graph) N() int { return len(g.Nodes) }

// AddNode appends a node and returns its index.
func (g *Graph) AddNode(n Node) int {
	g.Nodes = append(g.Nodes, n)
	return len(g.Nodes) - 1
}

// AddEdge appends a directed edge. Duplicate edges are ignored.
func (g *Graph) AddEdge(from, to int, kind rules.MatchKind) {
	if from < 0 || from >= g.N() || to < 0 || to >= g.N() {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range n=%d", from, to, g.N()))
	}
	for _, e := range g.Edges {
		if e.From == from && e.To == to {
			return
		}
	}
	g.Edges = append(g.Edges, Edge{From: from, To: to, Kind: kind})
}

// Out returns the out-neighbour indices of node i.
func (g *Graph) Out(i int) []int {
	var out []int
	for _, e := range g.Edges {
		if e.From == i {
			out = append(out, e.To)
		}
	}
	return out
}

// Neighbors returns the undirected neighbour set of node i.
func (g *Graph) Neighbors(i int) []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range g.Edges {
		var j int
		switch {
		case e.From == i:
			j = e.To
		case e.To == i:
			j = e.From
		default:
			continue
		}
		if !seen[j] {
			seen[j] = true
			out = append(out, j)
		}
	}
	return out
}

// PadFeatures returns a feature matrix where every node's feature vector is
// zero-padded (or truncated) to dim, allowing homogeneous GNNs to consume
// heterogeneous graphs.
func (g *Graph) PadFeatures(dim int) *mat.Dense {
	m := mat.NewDense(g.N(), dim)
	for i, n := range g.Nodes {
		row := m.Row(i)
		for j := 0; j < dim && j < len(n.Feature); j++ {
			row[j] = n.Feature[j]
		}
	}
	return m
}

// NormalizedAdjacency builds the symmetric GCN operator
// Â = D^{-1/2}(A + A^T + I)D^{-1/2} over the undirected version of the
// graph with self loops.
func (g *Graph) NormalizedAdjacency() *mat.CSR {
	n := g.N()
	type key struct{ i, j int }
	seen := map[key]bool{}
	var is, js []int
	add := func(i, j int) {
		if !seen[key{i, j}] {
			seen[key{i, j}] = true
			is = append(is, i)
			js = append(js, j)
		}
	}
	for i := 0; i < n; i++ {
		add(i, i)
	}
	for _, e := range g.Edges {
		add(e.From, e.To)
		add(e.To, e.From)
	}
	deg := make([]float64, n)
	for k := range is {
		deg[is[k]]++
	}
	vs := make([]float64, len(is))
	for k := range is {
		vs[k] = 1.0 / (math.Sqrt(deg[is[k]]) * math.Sqrt(deg[js[k]]))
	}
	return mat.NewCSR(n, n, is, js, vs)
}

// SumAdjacency builds the unnormalised operator A + A^T + (1+eps)·I used by
// GIN aggregation.
func (g *Graph) SumAdjacency(eps float64) *mat.CSR {
	n := g.N()
	var is, js []int
	var vs []float64
	for i := 0; i < n; i++ {
		is = append(is, i)
		js = append(js, i)
		vs = append(vs, 1+eps)
	}
	for _, e := range g.Edges {
		is = append(is, e.From, e.To)
		js = append(js, e.To, e.From)
		vs = append(vs, 1, 1)
	}
	return mat.NewCSR(n, n, is, js, vs)
}

// HasCycle reports whether the directed graph contains a cycle.
func (g *Graph) HasCycle() bool {
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, g.N())
	var dfs func(int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, v := range g.Out(u) {
			switch color[v] {
			case gray:
				return true
			case white:
				if dfs(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for i := 0; i < g.N(); i++ {
		if color[i] == white && dfs(i) {
			return true
		}
	}
	return false
}

// InducedSubgraph returns the subgraph on the given node indices (order
// preserved); edge endpoints are remapped. The Label/Tags are not copied —
// a subgraph is a structural object, not a labelled sample.
func (g *Graph) InducedSubgraph(idx []int) *Graph {
	remap := make(map[int]int, len(idx))
	sub := &Graph{ID: g.ID + "/sub"}
	for newIdx, oldIdx := range idx {
		remap[oldIdx] = newIdx
		sub.Nodes = append(sub.Nodes, g.Nodes[oldIdx])
	}
	for _, e := range g.Edges {
		ni, iok := remap[e.From]
		nj, jok := remap[e.To]
		if iok && jok {
			sub.Edges = append(sub.Edges, Edge{From: ni, To: nj, Kind: e.Kind})
		}
	}
	return sub
}

// ConnectedUndirected reports whether the graph is weakly connected.
func (g *Graph) ConnectedUndirected() bool {
	if g.N() == 0 {
		return true
	}
	visited := make([]bool, g.N())
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, next := range g.Neighbors(cur) {
			if !visited[next] {
				visited[next] = true
				count++
				stack = append(stack, next)
			}
		}
	}
	return count == g.N()
}

// ComponentOf returns the node indices weakly connected to seed, sorted by
// discovery order.
func (g *Graph) ComponentOf(seed int) []int {
	visited := make([]bool, g.N())
	var order []int
	stack := []int{seed}
	visited[seed] = true
	for len(stack) > 0 {
		cur := stack[0]
		stack = stack[1:]
		order = append(order, cur)
		for _, next := range g.Neighbors(cur) {
			if !visited[next] {
				visited[next] = true
				stack = append(stack, next)
			}
		}
	}
	return order
}
