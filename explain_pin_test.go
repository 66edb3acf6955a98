package fexiot_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"sync"
	"testing"

	"fexiot"
	"fexiot/internal/embed"
	"fexiot/internal/fusion"
)

// explainFixture is the system TestExplanationsPinned and
// TestExplainAllocCeiling explain against: CI dimensions, GIN, a model
// trained on 120 offline graphs, and 200 further graphs to analyse.
type explainFixture struct {
	sys    *fexiot.System
	graphs []*fexiot.Graph
}

var (
	explainFixtureOnce sync.Once
	explainFix         explainFixture
)

func getExplainFixture(t testing.TB) *explainFixture {
	t.Helper()
	explainFixtureOnce.Do(func() {
		opts := fexiot.DefaultOptions()
		opts.Seed = 13
		sys, err := fexiot.New(opts)
		if err != nil {
			t.Fatal(err)
		}
		pool := fusion.MultiHomePool(21, 60, 25, nil)
		b := fusion.NewBuilder(23, embed.NewEncoder(48, 64))
		var train []*fexiot.Graph
		for i := 0; i < 120; i++ {
			train = append(train, b.OfflineSized(pool))
		}
		sys.TrainCentral(train, 3, 100)
		var graphs []*fexiot.Graph
		for i := 0; i < 200; i++ {
			graphs = append(graphs, b.OfflineSized(pool))
		}
		explainFix = explainFixture{sys: sys, graphs: graphs}
	})
	return &explainFix
}

// explanationsPinned is the SHA-256 TestExplanationsPinned computes: every
// explanation must reproduce its node list and the bits of its score,
// fidelity and sparsity. It was a25ed178…, from commit a126760, before
// Algorithm 2 scored coalitions through the detector's row memo, until the
// models' input map became the first layer's projection (S·(X·W) for
// (S·X)·W) and training one tape per optimiser step, which move the
// detector's last bits.
const explanationsPinned = "0b3d918252c5ff009fb95ea3209f32d9be880de2298106b2d05273660568ff93"

// TestExplanationsPinned hashes 200 explanations: node lists and the
// Float64bits of score, fidelity and sparsity.
func TestExplanationsPinned(t *testing.T) {
	f := getExplainFixture(t)
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, g := range f.graphs {
		ex, err := f.sys.Explain(g)
		if err != nil {
			t.Fatal(err)
		}
		put(uint64(len(ex.NodeIndices)))
		for _, v := range ex.NodeIndices {
			put(uint64(v))
		}
		put(math.Float64bits(ex.Score))
		put(math.Float64bits(ex.Fidelity))
		put(math.Float64bits(ex.Sparsity))
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != explanationsPinned {
		t.Fatalf("explanations hash %s, pinned %s", got, explanationsPinned)
	}
}

// The allocations and bytes TestExplainAllocCeiling's measurement reads on
// commit a126760 (one warmed explanation of the fixture's probe graph).
const (
	parentExplainAllocs = 59052
	parentExplainBytes  = 10817098
)

// TestExplainAllocCeiling bounds the search's own garbage: one warmed
// explanation of the fixture graph with the largest searched component may
// allocate at most a quarter of what the parent commit's did.
func TestExplainAllocCeiling(t *testing.T) {
	f := getExplainFixture(t)
	probe, calls := f.graphs[0], 0
	for _, g := range f.graphs {
		if c := largestComponent(g); c > calls {
			probe, calls = g, c
		}
	}
	explain := func() {
		if _, err := f.sys.Explain(probe); err != nil {
			t.Fatal(err)
		}
	}
	explain() // warm the pooled workspace and the graph's caches
	const runs = 5
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		explain()
	}
	runtime.ReadMemStats(&after)
	allocs := float64(after.Mallocs-before.Mallocs) / runs
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%d-node graph, %d-node component: %.0f allocs, %.0f bytes per explanation (parent %d, %d)",
		probe.N(), calls, allocs, bytes, parentExplainAllocs, parentExplainBytes)
	if allocs > parentExplainAllocs/4 || bytes > parentExplainBytes/4 {
		t.Fatalf("explanation allocates %.0f objects / %.0f bytes, ceiling %d / %d",
			allocs, bytes, parentExplainAllocs/4, parentExplainBytes/4)
	}
}

// largestComponent is the node count of g's largest weakly connected
// component, the root Algorithm 2 searches from.
func largestComponent(g *fexiot.Graph) int {
	seen := make([]bool, g.N())
	best := 0
	for i := range seen {
		if seen[i] {
			continue
		}
		comp := g.ComponentOf(i)
		for _, v := range comp {
			seen[v] = true
		}
		best = max(best, len(comp))
	}
	return best
}
