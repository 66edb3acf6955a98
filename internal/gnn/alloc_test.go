package gnn

import (
	"testing"

	"fexiot/internal/autodiff"
)

// BenchmarkTrainStepAllocs pins the steady-state allocation cost of one
// contrastive training pair on a reused tape — the hot loop the arena and
// node recycling exist for. Seed baseline (fresh tape per pair): ~2400
// allocs/op; pooled: single digits.
func BenchmarkTrainStepAllocs(b *testing.B) {
	gs := benchGraphs(b, 8)
	m := NewGIN(featDim, 32, 16, 7)
	tape := autodiff.NewTape()
	binder := autodiff.Bind(tape, m.Params())
	grads := autodiff.NewGrads(m.Params())
	step := func(i int) {
		tape.Reset()
		binder.Rebind(tape, m.Params())
		za := m.Forward(tape, binder, gs[i%len(gs)])
		zb := m.Forward(tape, binder, gs[(i+1)%len(gs)])
		loss := tape.ContrastiveLoss(za, zb, i%2 == 0, 1.0)
		tape.Backward(loss)
		grads.Reset()
		grads.Add(binder)
	}
	for i := 0; i < 8; i++ { // warm the arena and node free lists
		step(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(i)
	}
}

// BenchmarkDetectAllocs pins the steady-state allocation cost of one
// inference pass through a long-lived workspace — the path a serve worker
// takes per request.
func BenchmarkDetectAllocs(b *testing.B) {
	gs := benchGraphs(b, 8)
	m := NewGIN(featDim, 32, 16, 7)
	ws := NewWorkspace()
	for i := 0; i < 8; i++ {
		ws.Embed(m, gs[i%len(gs)])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws.Embed(m, gs[i%len(gs)])
	}
}

// TestTrainStepSteadyStateAllocs is the hard allocation-regression pin: a
// warmed tape must run a full forward+backward+grad-walk pair in at most a
// handful of allocations (the seed path took thousands). The ceiling is
// deliberately loose — it catches a regression back to per-node allocation,
// not incidental single allocs.
func TestTrainStepSteadyStateAllocs(t *testing.T) {
	gs := makeGraphs(4)
	m := NewGIN(featDim, 32, 16, 7)
	tape := autodiff.NewTape()
	binder := autodiff.Bind(tape, m.Params())
	grads := autodiff.NewGrads(m.Params())
	step := func(i int) {
		tape.Reset()
		binder.Rebind(tape, m.Params())
		za := m.Forward(tape, binder, gs[i%len(gs)])
		zb := m.Forward(tape, binder, gs[(i+1)%len(gs)])
		loss := tape.ContrastiveLoss(za, zb, i%2 == 0, 1.0)
		tape.Backward(loss)
		grads.Reset()
		grads.Add(binder)
	}
	for i := 0; i < 8; i++ {
		step(i)
	}
	i := 0
	avg := testing.AllocsPerRun(20, func() {
		step(i)
		i++
	})
	if avg > 64 {
		t.Fatalf("steady-state train step allocates %.1f/op, want ≤64 "+
			"(regression toward per-node allocation)", avg)
	}
}

// TestDetectSteadyStateAllocs pins the workspace inference path the same
// way: a warmed workspace embed must stay within a handful of allocations —
// none of them a parameter name, which every model formats at construction.
// GIN and GCN measure 0, and their bound sees the six names GCN's three
// convolutions would format per pass. MAGNN's bound is what it measures:
// its operators are built per graph — the identity, two per-kind
// multiplicity counts and the three row-normalised copies. (Each node
// type's feature matrix is a tape lease.)
func TestDetectSteadyStateAllocs(t *testing.T) {
	gs := makeGraphs(4)
	for _, c := range []struct {
		m     Model
		bound float64
	}{
		{NewGIN(featDim, 32, 16, 7), 4},
		{NewGCN(featDim, 32, 16, 7), 4},
		{NewMAGNN(featDim, featDim, 32, 16, 7), 49},
	} {
		ws := NewWorkspace()
		for i := 0; i < 8; i++ {
			ws.Embed(c.m, gs[i%len(gs)])
		}
		i := 0
		avg := testing.AllocsPerRun(20, func() {
			ws.Embed(c.m, gs[i%len(gs)])
			i++
		})
		t.Logf("%T: %.1f allocs/op", c.m, avg)
		if avg > c.bound {
			t.Fatalf("steady-state %T workspace embed allocates %.1f/op, want ≤%.0f", c.m, avg, c.bound)
		}
	}
}
