package gnn

import (
	"math"
	"sync"
	"testing"

	"fexiot/internal/autodiff"
	"fexiot/internal/fusion"
	"fexiot/internal/graph"
)

// sizedGraphs builds n fresh graphs of about size+i nodes each, with both
// labels present so the contrastive sampler has pairs of either kind.
func sizedGraphs(seed int64, n, size int) []*graph.Graph {
	pool := fusion.MultiHomePool(seed, 3, 25, nil)
	b := fusion.NewBuilder(seed+1, testEnc)
	out := make([]*graph.Graph, n)
	for i := range out {
		out[i] = b.Offline(pool, size+i)
		out[i].Label = i%2 == 0
	}
	return out
}

func paramsBitEqual(t *testing.T, what string, got, want *autodiff.ParamSet) {
	t.Helper()
	for _, name := range want.Names() {
		g, w := got.Get(name).Data(), want.Get(name).Data()
		for i := range w {
			if math.Float64bits(g[i]) != math.Float64bits(w[i]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", what, name, i, g[i], w[i])
			}
		}
	}
}

// poolBytesCeiling bounds what one parked workspace may retain in
// TestTrainTapePoolBounded's churn (GIN 16/8 over graphs of up to ≈ 50
// nodes, every size recurring): measured plateau 8.5 MB.
const poolBytesCeiling = 16 << 20

// TestTrainTapePoolBounded pins that a tape which outlives its call is
// neither a leak nor a ratchet. 120 rounds, each on a fresh set of graphs
// whose sizes keep changing, then 240 rounds on small graphs only: what the
// workspace keeps plateaus under a constant while every shape recurs, and
// once the large shapes stop recurring the arena's Trim epochs — which must
// keep firing on a tape that is never thrown away — hand them back. (That a
// parked tape holds no transposes of its borrower's operators is pinned in
// autodiff's TestRecycleForgetsTransposes.) The rounds drive one workspace
// directly — which tape sync.Pool hands out is not deterministic — through
// the same train-then-Recycle steps TrainContrastive takes.
func TestTrainTapePoolBounded(t *testing.T) {
	m := NewGIN(featDim, 16, 8, 7)
	opt := autodiff.NewAdam(0.005)
	cfg := DefaultTrainConfig(1)
	cfg.PairsPerEpoch = 8
	ws := NewWorkspace()
	var peak int64
	for round := 0; round < 360; round++ {
		cfg.Seed = int64(round)
		size := 3 + (round*7)%40
		if round >= 120 {
			size = 3 + round%3
		}
		ws.trainContrastive(m, sizedGraphs(int64(round), 6, size), cfg, opt)
		ws.tape.Recycle() // park, minus the Put: ws must stay this test's alone
		st := ws.tape.ArenaStats()
		if st.BytesLive != 0 {
			t.Fatalf("round %d: parked tape still leases %d bytes", round, st.BytesLive)
		}
		peak = max(peak, st.BytesPooled)
	}
	st := ws.tape.ArenaStats()
	t.Logf("peak pooled %d KB; at the end %d KB in %d classes after %d trims",
		peak>>10, st.BytesPooled>>10, st.Classes, st.Trims)
	if peak > poolBytesCeiling {
		t.Fatalf("a parked workspace retained %d bytes, ceiling %d", peak, poolBytesCeiling)
	}
	if st.Trims < 3 {
		t.Fatalf("360 rounds reached %d arena Trim epochs, want 3", st.Trims)
	}
	if st.BytesPooled > peak/2 {
		t.Fatalf("shapes that stopped recurring two epochs ago are still pooled: %d of a %d-byte peak",
			st.BytesPooled, peak)
	}
}

// panicModel panics in Forward once fuse calls have been made.
type panicModel struct {
	Model
	fuse *int
}

func (p panicModel) Forward(t *autodiff.Tape, b *autodiff.Binder, g *graph.Graph) *autodiff.Node {
	if *p.fuse--; *p.fuse < 0 {
		panic("forward failed")
	}
	return p.Model.Forward(t, b, g)
}

// TestTrainTapePanicNotReused extends autodiff's
// TestTapeReuseMatchesFreshTape to a pass abandoned halfway: a round whose
// model panics in the middle of a pair never parks its workspace, and even
// a tape left in that state — nodes recorded, buffers leased, gradients half
// accumulated — trains the next round to exactly the weights a brand-new
// tape gives, as does the pool after the panic.
func TestTrainTapePanicNotReused(t *testing.T) {
	gs := sizedGraphs(3, 8, 6)
	cfg := DefaultTrainConfig(5)
	cfg.PairsPerEpoch = 12
	train := func(ws *Workspace) *autodiff.ParamSet {
		m := NewGIN(featDim, 16, 8, 7)
		opt := autodiff.NewAdam(0.005)
		if ws == nil {
			if !TrainContrastive(m, gs, cfg, opt) {
				t.Fatal("round diverged")
			}
		} else if !ws.trainContrastive(m, gs, cfg, opt) {
			t.Fatal("round diverged")
		}
		return m.Params()
	}
	want := train(NewWorkspace())

	abandon := func(run func(m Model)) {
		defer func() {
			if recover() == nil {
				t.Fatal("the model's panic did not propagate")
			}
		}()
		fuse := 7 // the round's eighth graph forward, of 14
		run(panicModel{NewGIN(featDim, 16, 8, 9), &fuse})
	}
	dirty := NewWorkspace()
	abandon(func(m Model) { dirty.trainContrastive(m, gs, cfg, autodiff.NewAdam(0.005)) })
	if dirty.tape.ArenaStats().BytesLive == 0 {
		t.Fatal("the abandoned pass leased nothing: the test no longer interrupts a pass")
	}
	paramsBitEqual(t, "abandoned tape reused", train(dirty), want)

	abandon(func(m Model) { TrainContrastive(m, gs, cfg, autodiff.NewAdam(0.005)) })
	paramsBitEqual(t, "pool after a panic", train(nil), want)
}

// TestTrainContrastiveConcurrent trains eight identical models at once
// through the shared workspace pool (under -race in `make race-fed`): every
// goroutine must end at the weights a lone run reaches.
func TestTrainContrastiveConcurrent(t *testing.T) {
	gs := sizedGraphs(11, 8, 6)
	cfg := DefaultTrainConfig(2)
	cfg.PairsPerEpoch = 12
	train := func() *autodiff.ParamSet {
		m := NewGIN(featDim, 16, 8, 7)
		opt := autodiff.NewAdam(0.005)
		for round := 0; round < 3; round++ {
			c := cfg
			c.Seed = int64(round)
			TrainContrastive(m, gs, c, opt)
		}
		return m.Params()
	}
	want := train()
	got := make([]*autodiff.ParamSet, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = train()
		}(i)
	}
	wg.Wait()
	for _, p := range got {
		paramsBitEqual(t, "concurrent round", p, want)
	}
}
