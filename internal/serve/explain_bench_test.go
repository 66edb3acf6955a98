package serve

import (
	"context"
	"fmt"
	"strconv"
	"testing"

	"fexiot/internal/embed"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/obs"
)

// BenchmarkExplain measures one explanation at the paper's dimensions (GIN
// 332/64/32) through a one-worker engine, per size of the component the
// search starts from — the sizes the audit_batch workload analyses — and
// reports the share of each layer's rows the search's memo served, read
// from the engine's registry the way an operator would.
func BenchmarkExplain(b *testing.B) {
	enc := embed.NewEncoder(300, 512)
	pool := fusion.MultiHomePool(3, 40, 30, nil)
	builder := fusion.NewBuilder(9, enc)
	var gs []*graph.Graph
	bySize := map[int][]*graph.Graph{}
	for i := 0; i < 400; i++ {
		g := builder.OfflineSized(pool)
		gs = append(gs, g)
		largest := 0
		for v := 0; v < g.N(); v++ {
			largest = max(largest, len(g.ComponentOf(v)))
		}
		if len(bySize[largest]) < 8 {
			bySize[largest] = append(bySize[largest], g)
		}
	}
	det := gnn.NewDetector(gnn.NewGIN(fusion.WordFeatureDim(enc), 64, 32, 10), 3)
	det.FitClassifier(gs[:60])
	snap := NewSnapshot(1, det, nil, searchCfg)
	ctx := context.Background()
	for _, size := range []int{6, 7, 8} {
		b.Run(fmt.Sprintf("dims=paper/component=%d", size), func(b *testing.B) {
			probes := bySize[size]
			if len(probes) == 0 {
				b.Skipf("no graph with a %d-node component", size)
			}
			reg := obs.NewRegistry()
			e := NewEngine(Options{Workers: 1, Metrics: reg})
			defer e.Close()
			e.Publish(snap)
			for _, g := range probes { // warm the worker's workspace and the graphs' caches
				if _, _, err := e.Explain(ctx, g); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := e.Explain(ctx, probes[i%len(probes)]); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			// Counted since the engine started: the warm-up explained the
			// same graphs.
			reportRowsReused(b, reg)
		})
	}
}

// reportRowsReused reports, per GNN layer, the share of the rows reg's
// explanation searches looked up that their memos served, as
// rows-reused-l0, -l1, ….
func reportRowsReused(b *testing.B, reg *obs.Registry) {
	rows := reg.CounterVec("fexiot_explain_layer_rows_total", "", "layer", "result")
	for l := 0; ; l++ {
		layer := strconv.Itoa(l)
		reused, computed := rows.With(layer, "reused").Value(), rows.With(layer, "computed").Value()
		if reused+computed == 0 {
			return
		}
		b.ReportMetric(float64(reused)/float64(reused+computed), "rows-reused-l"+layer)
	}
}
