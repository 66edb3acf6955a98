package gnn

import (
	"runtime"
	"testing"

	"fexiot/internal/autodiff"
	"fexiot/internal/embed"
	"fexiot/internal/fusion"
	"fexiot/internal/graph"
	"fexiot/internal/rules"
)

// paperRound builds one fed_round client exactly as bench/wl_fed.go does —
// GIN 332/64/32 (300-d word vectors + 2×16 signature), 24 offline graphs
// of 6–29 nodes from one household's 50-rule pool, Adam kept across rounds,
// 10 contrastive pairs per TrainContrastive call — and returns the round.
// It uses only API that exists at 6ba3676, so the same file measures the
// parent.
func paperRound() (round func(r int)) {
	const seed = 3
	enc := embed.NewEncoder(300, 512)
	pool := rules.NewGenerator(seed, rules.Archetypes()[0], "c0-").RuleSet(50)
	b := fusion.NewBuilder(seed+1, enc)
	var graphs []*graph.Graph
	for i := 0; i < 24; i++ {
		graphs = append(graphs, b.Offline(pool, 6+i))
	}
	model := NewGIN(fusion.WordFeatureDim(enc), 64, 32, 100)
	opt := autodiff.NewAdam(0.005)
	cfg := DefaultTrainConfig(seed)
	cfg.LR = 0.005
	cfg.PairsPerEpoch = 10
	return func(r int) {
		cfg.Seed = seed + int64(r)
		TrainContrastive(model, graphs, cfg, opt)
	}
}

// BenchmarkTrainRound is the in-package ledger row for fed_round's local
// training: one client's round per iteration, two rounds of warm-up as its
// set-up federation gives.
func BenchmarkTrainRound(b *testing.B) {
	b.Run("dims=paper", func(b *testing.B) {
		round := paperRound()
		round(0)
		round(1)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			round(2 + i)
		}
	})
}

// What TestTrainRoundAllocCeiling logs at the parent commit 6ba3676 (a tape,
// and so a cold arena, per call): 1,736 allocations and 5,151 KB a round.
// Its bytes bound is tighter than a quarter of that: a round also keeps its
// rollback snapshot and gradient slab (2 × 435 KB at the paper's
// dimensions, 870 of the 912 KB a round allocated before) in the
// workspace, so a warmed round allocates well under one model's size.
const (
	parentRoundAllocs = 1736
	parentRoundBytes  = 5151 << 10
	roundBytesCeiling = 64 << 10
)

// TestTrainRoundAllocCeiling pins what the pooled tape and the workspace's
// training slabs are for: a warmed round allocates at most a quarter of
// what the parent's did in count, and at most roundBytesCeiling bytes. The
// figure is the cheapest of eight rounds, not their mean: a round is warm
// when the pool hands back the workspace the previous one parked, which
// sync.Pool is free not to do — a GC between two rounds may empty it — and
// under -race randomly does not, so there the test is skipped.
func TestTrainRoundAllocCeiling(t *testing.T) {
	if raceDetector {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	round := paperRound()
	round(0)
	round(1)
	allocs, bytes := ^uint64(0), ^uint64(0)
	var before, after runtime.MemStats
	for r := 2; r < 10; r++ {
		runtime.ReadMemStats(&before)
		round(r)
		runtime.ReadMemStats(&after)
		allocs = min(allocs, after.Mallocs-before.Mallocs)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("warmed round: %d allocations, %d KB (parent %d, %d KB)",
		allocs, bytes>>10, parentRoundAllocs, parentRoundBytes>>10)
	if allocs > parentRoundAllocs/4 || bytes > roundBytesCeiling {
		t.Fatalf("warmed round allocates %d times, %d KB; want ≤ %d and ≤ %d KB",
			allocs, bytes>>10, parentRoundAllocs/4, roundBytesCeiling>>10)
	}
}
