package graph

import (
	"math"
	"sync"

	"fexiot/internal/mat"
)

// Structural caches: a graph's adjacency operators and padded feature
// matrices are immutable once the graph is built, but the GNN training loop
// requests them for every forward pass. The caches below memoise them.
// They are safe for concurrent readers (federated clients train in
// parallel, and evaluation shares test graphs across clients).
type structCache struct {
	mu       sync.Mutex
	normAdj  *mat.CSR
	sumAdj   map[float64]*mat.CSR
	features map[int]*mat.Dense
	rowKeys  []uint64
}

func (g *Graph) cache() *structCache {
	g.cacheOnce.Do(func() {
		g.cached = &structCache{
			sumAdj:   map[float64]*mat.CSR{},
			features: map[int]*mat.Dense{},
		}
	})
	return g.cached
}

// InvalidateCache drops memoised operators after structural mutation.
// Builders that mutate a graph after handing it to a model must call this.
func (g *Graph) InvalidateCache() {
	c := g.cache()
	c.mu.Lock()
	c.normAdj = nil
	c.sumAdj = map[float64]*mat.CSR{}
	c.features = map[int]*mat.Dense{}
	c.rowKeys = nil
	c.mu.Unlock()
}

// CachedNormalizedAdjacency memoises NormalizedAdjacency.
func (g *Graph) CachedNormalizedAdjacency() *mat.CSR {
	c := g.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.normAdj == nil {
		c.normAdj = g.NormalizedAdjacency()
	}
	return c.normAdj
}

// CachedSumAdjacency memoises SumAdjacency per ε.
func (g *Graph) CachedSumAdjacency(eps float64) *mat.CSR {
	c := g.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.sumAdj[eps]; ok {
		return a
	}
	a := g.SumAdjacency(eps)
	c.sumAdj[eps] = a
	return a
}

// CachedPadFeatures memoises PadFeatures per dimension. The returned matrix
// is shared — callers must not mutate it.
func (g *Graph) CachedPadFeatures(dim int) *mat.Dense {
	c := g.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.features[dim]; ok {
		return m
	}
	m := g.PadFeatures(dim)
	c.features[dim] = m
	return m
}

// CachedRowKeys memoises a key per node, a hash of its feature space and
// the bits of its feature: nodes whose rows are bitwise equal share a key,
// and nodes with different rows almost never do, so a caller that groups
// nodes by key confirms a match on the rows themselves. The returned slice
// is shared — callers must not mutate it.
func (g *Graph) CachedRowKeys() []uint64 {
	c := g.cache()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.rowKeys == nil {
		c.rowKeys = make([]uint64, g.N())
		for i, n := range g.Nodes {
			h := uint64(n.Space)<<32 ^ uint64(len(n.Feature))
			for _, f := range n.Feature {
				h = (h ^ math.Float64bits(f)) * 0x100000001b3 // FNV-1a's prime, a word at a time
				h ^= h >> 29
			}
			c.rowKeys[i] = h
		}
	}
	return c.rowKeys
}
