package gnn

import (
	"runtime"
	"testing"

	"fexiot/internal/autodiff"
	"fexiot/internal/embed"
	"fexiot/internal/fusion"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
	"fexiot/internal/rules"
)

// paperRound builds one fed_round client exactly as bench/wl_fed.go does —
// GIN 332/64/32 (300-d word vectors + 2×16 signature), 24 offline graphs
// of 6–29 nodes from one household's 50-rule pool, Adam kept across rounds,
// pairs contrastive pairs per TrainContrastive call (fed_round's 10) — and
// returns the round. It uses only API that exists at 6ba3676, so the same
// file measures the parent.
func paperRound(pairs int) (round func(r int)) {
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
	cfg.PairsPerEpoch = pairs
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
		round := paperRound(10)
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
	round := paperRound(10)
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

// The kernel FLOPs (fexiot_mat_flops_total: the dense products) of one
// warmed client round, round 2 after rounds 0 and 1, with 10 and with 2
// pairs, as TestTrainRoundFLOPs logs them on the parent commit 630d41b: a
// tape per pair, each graph's first layer aggregating 332-wide feature rows.
const (
	parentRoundFLOPs10 = 63_004_672
	parentRoundFLOPs2  = 9_025_536
)

// TestTrainRoundFLOPs pins the work a client round saves by projecting
// each distinct node row once per optimiser step and forwarding each
// distinct graph once: a warmed round's kernel FLOPs are at most 0.6 of
// the parent's at fed_round's 10 pairs (two steps, the first of 16 draws),
// and at most 0.95 at 2 pairs (one step of four draws, which repeat less).
// The count is nominal, 2·m·k·n a product: it includes the zero rows that
// pad a step's row table, whose terms the kernels skip.
func TestTrainRoundFLOPs(t *testing.T) {
	for _, c := range []struct {
		pairs  int
		parent int64
		ratio  float64
	}{{10, parentRoundFLOPs10, 0.6}, {2, parentRoundFLOPs2, 0.95}} {
		round := paperRound(c.pairs)
		round(0)
		round(1)
		reg := obs.NewRegistry()
		mat.InstrumentKernels(reg)
		round(2)
		mat.InstrumentKernels(nil)
		got := reg.Counter("fexiot_mat_flops_total", "").Value()
		t.Logf("%d pairs: %d kernel FLOPs a warmed round (parent %d, ratio %.3f)",
			c.pairs, got, c.parent, float64(got)/float64(c.parent))
		if float64(got) > c.ratio*float64(c.parent) {
			t.Errorf("%d pairs: a warmed round executes %d kernel FLOPs, want ≤ %.1f × the parent's %d",
				c.pairs, got, c.ratio, c.parent)
		}
	}
}
