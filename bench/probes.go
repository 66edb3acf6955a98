package main

// probes.go holds the measurements several workloads' traced runs share:
// process counters, dense-kernel timings at a graph's shapes, and one
// contrastive training pair split into forward and backward.

import (
	"runtime"
	"syscall"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// timeUS runs fn n times and returns the median duration in µs.
func timeUS(n int, fn func()) float64 {
	d := make([]float64, n)
	for i := range d {
		t := time.Now()
		fn()
		d[i] = float64(time.Since(t)) / 1e3
	}
	return median(d)
}

// procMeter diffs the Go runtime's allocation and GC counters over a span
// of work.
type procMeter struct{ m0 runtime.MemStats }

func startProc() *procMeter {
	p := &procMeter{}
	runtime.ReadMemStats(&p.m0)
	return p
}

// into writes proc.* for `ops` operations since startProc.
func (p *procMeter) into(layer map[string]float64, ops int) {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if ops > 0 {
		layer["proc.alloc_kb_per_op"] = float64(m.TotalAlloc-p.m0.TotalAlloc) / 1024 / float64(ops)
	}
	layer["proc.gc_pause_ms_total"] = float64(m.PauseTotalNs-p.m0.PauseTotalNs) / 1e6
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		layer["proc.peak_rss_mb"] = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
}

// medianGraph returns the graph with the median node count.
func medianGraph(gs []*graph.Graph) *graph.Graph {
	ns := make([]float64, len(gs))
	for i, g := range gs {
		ns[i] = float64(g.N())
	}
	want := int(percentile(sortedCopy(ns), 50))
	for _, g := range gs {
		if g.N() == want {
			return g
		}
	}
	return gs[0]
}

// matProbes times the three kernels a GIN layer's forward and backward
// passes spend their time in, at graph g's shapes: the neighbourhood sum
// (SpMM, N×N sparse by N×in), the first dense product (N×in by in×hidden)
// and the backward product against a transposed weight (N×hidden by the
// transpose of in×hidden).
func matProbes(layer map[string]float64, g *graph.Graph, in, hidden int) {
	n := g.N()
	adj := g.SumAdjacency(0)
	h := g.PadFeatures(in)
	w := rng.New(1).Glorot(in, hidden)
	agg := mat.NewDense(n, in)
	z := mat.NewDense(n, hidden)
	back := mat.NewDense(n, in)
	const reps = 400
	layer["mat.spmm_us"] = timeUS(reps, func() { mat.SpMMTo(agg, adj, h) })
	layer["mat.mul_us"] = timeUS(reps, func() { mat.MulTo(z, h, w) })
	layer["mat.mulbt_us"] = timeUS(reps, func() { mat.MulBTTo(back, z, w) })
}

// pairProbes times one contrastive pair the way gnn.TrainContrastive runs
// it — Model.Forward on both graphs plus the loss, then Tape.Backward — on
// consecutive graph pairs.
func pairProbes(layer map[string]float64, m gnn.Model, gs []*graph.Graph, reps int) {
	tape := autodiff.NewTape()
	binder := autodiff.Bind(tape, m.Params())
	fwd := make([]float64, reps)
	bwd := make([]float64, reps)
	for i := 0; i < reps; i++ {
		a, b := gs[i%len(gs)], gs[(i+1)%len(gs)]
		t0 := time.Now()
		tape.Reset()
		binder.Rebind(tape, m.Params())
		loss := tape.ContrastiveLoss(m.Forward(tape, binder, a), m.Forward(tape, binder, b),
			a.Label != b.Label, 2.0)
		t1 := time.Now()
		tape.Backward(loss)
		fwd[i] = float64(t1.Sub(t0)) / 1e3
		bwd[i] = float64(time.Since(t1)) / 1e3
	}
	layer["autodiff.forward_us"] = median(fwd)
	layer["autodiff.backward_us"] = median(bwd)
}
