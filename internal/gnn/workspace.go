package gnn

import (
	"sync"

	"fexiot/internal/autodiff"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
)

// Workspace is the reusable scratch of one goroutine: a tape (with its
// arena of recycled buffers), a binder, and an embedding output slice. A
// long-lived worker — a serve.Engine worker, a stream refusion loop — holds
// one Workspace so its forward passes stop allocating; transient callers
// (Embed/EmbedAll, and the training loops, whose caller comes back once per
// federated round) borrow one from the package pool, so a client's second
// round leases the buffers its first released.
//
// A Workspace is NOT safe for concurrent use.
type Workspace struct {
	tape   *autodiff.Tape
	binder *autodiff.Binder
	emb    []float64
	// A training round's rollback snapshot and gradient slab, kept for the
	// next round of a model of the same size, and its steps' buffers.
	snapshot []float64
	grads    *autodiff.Grads
	step     step
}

// NewWorkspace creates an inference workspace.
func NewWorkspace() *Workspace {
	t := autodiff.NewTape()
	return &Workspace{tape: t, binder: autodiff.Bind(t, nil)}
}

// Embed runs one forward pass and returns the graph embedding. The returned
// slice is workspace-owned and valid only until the next Embed call on this
// workspace; callers that retain it must copy.
func (ws *Workspace) Embed(m Model, g *graph.Graph) []float64 {
	ws.tape.Reset()
	ws.binder.Rebind(ws.tape, m.Params())
	out := m.Forward(ws.tape, ws.binder, g)
	ws.emb = append(ws.emb[:0], out.Value.Row(0)...)
	return ws.emb
}

// wsPool recycles workspaces for callers without a long-lived one. Entries
// are pointers, so Get/Put do not allocate on the steady state. Everything
// in the pool has been through park; a workspace whose pass panicked is
// never parked — the GC takes it, half-built pass and all.
var wsPool = sync.Pool{New: func() any { return NewWorkspace() }}

func borrowWorkspace() *Workspace { return wsPool.Get().(*Workspace) }

// park returns ws to the pool holding nothing of its borrower's: Recycle
// releases every buffer to the arena and drops the node and transpose-cache
// references to the caller's graphs and parameters, and the step forgets
// its graphs and rows. The training snapshot and gradient slab stay,
// copies sized for the next round's model. What a parked workspace
// retains is bounded by the arena's per-class cap and trim epochs
// (TestTrainTapePoolBounded).
func (ws *Workspace) park() {
	ws.tape.Recycle()
	ws.binder.Rebind(ws.tape, nil)
	ws.step.reset()
	wsPool.Put(ws)
}

// Embed runs inference and returns the embedding as a caller-owned vector.
func Embed(m Model, g *graph.Graph) []float64 {
	ws := borrowWorkspace()
	out := append([]float64(nil), ws.Embed(m, g)...)
	ws.park()
	return out
}

// EmbedAll embeds a batch of graphs, fanning the independent forward
// passes out over the shared mat worker bound (inference reads the params
// and the mutex-guarded graph caches only, so passes are independent). Each
// goroutine borrows its own pooled workspace.
func EmbedAll(m Model, gs []*graph.Graph) [][]float64 {
	out := make([][]float64, len(gs))
	mat.ParallelFor(len(gs), func(i int) {
		out[i] = Embed(m, gs[i])
	})
	return out
}
