package explain

import (
	"fmt"
	"testing"

	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/rng"
)

// BenchmarkKernelSHAP measures one kernel-SHAP evaluation (K = 12) of a
// four-node candidate inside an eight-node component at the paper's
// dimensions, on a scorer of its own — a search's first reward, before the
// memo has anything from earlier candidates — and the share of each
// layer's rows the twelve coalitions reused among themselves.
func BenchmarkKernelSHAP(b *testing.B) {
	b.Run("dims=paper", func(b *testing.B) {
		det := refDetector("GIN", 1)
		var g *graph.Graph
		var root []int
		for r := rng.New(5); len(root) != 8; {
			g = genGraph(r, refDims[1].word, refDims[1].sent)
			root = rootComponent(adjacency(g))
		}
		ws := gnn.NewWorkspace()
		var st gnn.ScorerStats
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc := det.Scorer(ws, g)
			newEvaluator(sc, g.N()).kernelSHAP(root[:4], 12, rng.New(1))
			st = sc.Stats()
		}
		for l, reused := range st.RowsReused {
			b.ReportMetric(float64(reused)/float64(reused+st.RowsComputed[l]), fmt.Sprintf("rows-reused-l%d", l))
		}
	})
}
