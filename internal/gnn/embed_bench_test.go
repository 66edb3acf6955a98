package gnn

import (
	"testing"

	"fexiot/internal/embed"
	"fexiot/internal/fusion"
	"fexiot/internal/graph"
)

// BenchmarkEmbed is the in-package ledger row for the Table III prediction
// stage as audit_batch times it: one forward pass of GIN 332/64/32 (300-d
// word vectors + 2×16 signature) through one long-lived workspace, over
// graphs drawn the way audit_batch draws them (MultiHomePool(3, 40, 30),
// Builder.OfflineSized). It uses only API that exists at 4cc5255, so the
// same file measures the parent.
func BenchmarkEmbed(b *testing.B) {
	b.Run("dims=paper", func(b *testing.B) {
		enc := embed.NewEncoder(300, 512)
		pool := fusion.MultiHomePool(3, 40, 30, nil)
		builder := fusion.NewBuilder(9, enc)
		gs := make([]*graph.Graph, 64)
		for i := range gs {
			gs[i] = builder.OfflineSized(pool)
		}
		model := NewGIN(fusion.WordFeatureDim(enc), 64, 32, 10)
		ws := NewWorkspace()
		for _, g := range gs { // warm the workspace's arena and the graphs' caches
			ws.Embed(model, g)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ws.Embed(model, gs[i%len(gs)])
		}
	})
}
