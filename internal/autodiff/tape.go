// Package autodiff implements a reverse-mode automatic differentiation tape
// over dense matrices. It is the training runtime for every neural model in
// the repository — the MLP correlation classifier, the DeepLog LSTM baseline
// and the GCN/GIN/MAGNN graph networks — standing in for the PyTorch/DGL
// stack the paper uses.
//
// The tape is rebuilt for every pass (define-by-run): an inference pass,
// or a whole optimiser step — package gnn records every graph a training
// step draws on one tape, each forwarded once, and sums the step's losses
// into one Backward. Backward walks the nodes in reverse insertion order,
// which is a valid topological order because operations can only consume
// previously created nodes; a node several ops consume (a graph's
// embedding in two pairs, a row Gather hands to several graphs) collects
// each consumer's gradient.
//
// # Memory model
//
// The tape owns a mat.Arena and recycles aggressively: Reset returns every
// node struct to a free list and every tape-allocated Value/Grad backing
// array to the arena, so a training step after warm-up runs at ~zero
// steady-state allocations, and a Reset every arenaTrimNodes recycled
// nodes trims the arena's idle size classes. A tape is meant to outlive the
// call that uses it (package gnn parks its tapes in a pool between calls,
// so a federated client's second round leases what its first released);
// Recycle is the Reset for that hand-over. The ownership rules (DESIGN.md
// §4.13):
//
//   - Param/Constant values are caller-owned; the tape never recycles them.
//     A Zeros value is the tape's, filled by the caller, recycled at Reset.
//   - Every other node's Value and Grad die at Reset. Any reference held
//     across Reset — a Node pointer or its Grad — is invalid.
//   - To keep a result past Reset, copy it (Value.Clone()) first.
//   - Gradients must be consumed (Grads.Add) before Reset.
//
// Backward dispatch is closure-free: each op stores a package-level back
// function and keeps its state (parents, scalars, index slices) in Node
// fields, because capturing closures allocate on every op while plain
// function values do not.
package autodiff

import (
	"fmt"
	"math"

	"fexiot/internal/mat"
)

// Node is a matrix-valued value on the tape together with its gradient.
type Node struct {
	Value *mat.Dense
	Grad  *mat.Dense

	tape     *Tape
	back     func(*Node)
	a, b     *Node   // the common one- and two-parent cases, inline
	parents  []*Node // variadic parents (ConcatCols); capacity reused
	needs    bool
	external bool // Value is caller-owned (Param/Constant): never recycled
	hasAux   bool // ahdr holds a leased auxiliary buffer (released on Reset)

	// Per-op state read by the static back functions.
	scalar  float64   // Scale factor, AddConst c, 1/n, wsum…
	idx     []int     // caller-owned labels (SCE), row indices (Gather)
	weights []float64 // caller-owned class weights (SCE)
	sparse  *mat.CSR  // SpMM operator

	// Inline headers backing Value, Grad and the auxiliary matrix when they
	// are tape-owned; Remake retargets them at arena leases without
	// allocating.
	vhdr, ghdr, ahdr mat.Dense
}

// Tape records operations for reverse-mode differentiation and owns the
// recycled memory behind them.
type Tape struct {
	nodes []*Node
	free  []*Node // recycled node structs

	arena   *mat.Arena
	scratch mat.Dense // backward temporary header (single-threaded use)

	// csrT caches sparse-operator transposes across passes: graph
	// adjacencies recur every epoch, so the backward of SpMM hits this map
	// instead of rebuilding the transpose. Bounded; cleared when full (the
	// MAGNN path builds throwaway operators that must not pile up).
	csrT map[*mat.CSR]*mat.CSR

	recycled int // nodes recycled since the last arena Trim
}

// arenaTrimNodes is how many recycled nodes pass between arena Trim
// epochs: a clock of work done, not of passes, since one pass may be one
// embedding or a whole training step's.
const arenaTrimNodes = 1 << 14

// csrCacheMax bounds the transpose cache.
const csrCacheMax = 512

// NewTape creates an empty tape with its own arena.
func NewTape() *Tape {
	return &Tape{arena: mat.NewArena()}
}

// Reset recycles every recorded node: tape-owned Value/Grad backing arrays
// return to the arena (parameters and constants are skipped) and the node
// structs go to the free list for the next pass. Everything obtained from
// the tape — Node pointers and their gradients — is invalid afterwards; see the
// package doc for the ownership rules.
func (t *Tape) Reset() {
	for _, n := range t.nodes {
		if n.Grad != nil {
			t.arena.Release(n.Grad.Data())
			n.Grad = nil
		}
		if n.hasAux {
			t.arena.Release(n.ahdr.Data())
			n.hasAux = false
		}
		if !n.external {
			t.arena.Release(n.Value.Data())
		}
		n.Value = nil
		n.external, n.needs = false, false
		n.back = nil
		n.a, n.b = nil, nil
		n.parents = n.parents[:0]
		n.scalar = 0
		n.idx, n.weights = nil, nil
		n.sparse = nil
		t.free = append(t.free, n)
	}
	t.recycled += len(t.nodes)
	t.nodes = t.nodes[:0]
	if t.recycled >= arenaTrimNodes {
		t.recycled = 0
		t.arena.Trim()
	}
}

// Recycle is Reset for a tape about to be parked and handed to an unrelated
// caller: it also forgets the sparse-transpose cache, whose keys are the
// last caller's operators, so a parked tape pins no graph its borrower has
// dropped. What it keeps is the arena (bounded per size class, trimmed
// every arenaTrimNodes recycled nodes) and the node free list (one pass's
// worth).
func (t *Tape) Recycle() {
	t.Reset()
	clear(t.csrT)
}

// ArenaStats exposes the tape arena's counters (tests).
func (t *Tape) ArenaStats() mat.ArenaStats { return t.arena.Stats() }

// alloc takes a node struct from the free list or the heap.
func (t *Tape) alloc() *Node {
	if k := len(t.free); k > 0 {
		n := t.free[k-1]
		t.free = t.free[:k-1]
		return n
	}
	return &Node{}
}

// leaf registers a caller-owned value (parameter or constant).
func (t *Tape) leaf(v *mat.Dense, needs bool) *Node {
	n := t.alloc()
	n.tape = t
	n.needs = needs
	n.external = true
	n.Value = v
	t.nodes = append(t.nodes, n)
	return n
}

// op registers an operation node whose r×c value is a zeroed arena lease
// (the same semantics mat.NewDense gave the pre-arena tape).
func (t *Tape) op(r, c int, needs bool, back func(*Node)) *Node {
	return t.node(r, c, t.arena.Lease(r*c), needs, back)
}

// opFull is op for an operation that assigns every element of its value
// before anything reads it: the lease skips the clear that the product or
// copy would immediately repeat. Each caller says why that holds; under
// -tags=debugarena a recycled lease arrives as NaN, so an element the op
// failed to assign poisons the pass instead of reading as a lucky zero.
func (t *Tape) opFull(r, c int, needs bool, back func(*Node)) *Node {
	return t.node(r, c, t.arena.LeaseUninit(r*c), needs, back)
}

func (t *Tape) node(r, c int, buf []float64, needs bool, back func(*Node)) *Node {
	n := t.alloc()
	n.tape = t
	n.needs = needs
	n.back = back
	n.vhdr.Remake(r, c, buf)
	n.Value = &n.vhdr
	t.nodes = append(t.nodes, n)
	return n
}

// anyNeeds reports whether any parent participates in gradient computation.
func anyNeeds(parents ...*Node) bool {
	for _, p := range parents {
		if p != nil && p.needs {
			return true
		}
	}
	return false
}

// Param registers a trainable parameter. Its gradient is allocated lazily on
// the first backward pass that touches it.
func (t *Tape) Param(v *mat.Dense) *Node {
	return t.leaf(v, true)
}

// Constant registers a value that requires no gradient.
func (t *Tape) Constant(v *mat.Dense) *Node {
	return t.leaf(v, false)
}

// ensureGrad leases n.Grad (zeroed) if missing. Reset returns the buffer to
// the arena, so across steps the same backing arrays cycle between the grad
// headers instead of being reallocated.
func ensureGrad(n *Node) {
	if n.Grad == nil {
		r, c := n.Value.Dims()
		n.ghdr.Remake(r, c, n.tape.arena.Lease(r*c))
		n.Grad = &n.ghdr
	}
}

// Backward seeds d(loss)/d(loss)=1 and propagates gradients to all
// contributing nodes. loss must be 1×1.
func (t *Tape) Backward(loss *Node) {
	r, c := loss.Value.Dims()
	if r != 1 || c != 1 {
		panic(fmt.Sprintf("autodiff: Backward on %dx%d node; want scalar", r, c))
	}
	ensureGrad(loss)
	loss.Grad.Set(0, 0, 1)
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := t.nodes[i]
		if n.back != nil && n.needs && n.Grad != nil {
			n.back(n)
		}
	}
}

// csrTranspose returns the cached transpose of s, building it on first use.
func (t *Tape) csrTranspose(s *mat.CSR) *mat.CSR {
	if t.csrT == nil {
		t.csrT = make(map[*mat.CSR]*mat.CSR)
	}
	if st, ok := t.csrT[s]; ok {
		return st
	}
	if len(t.csrT) >= csrCacheMax {
		clear(t.csrT)
	}
	st := s.T()
	t.csrT[s] = st
	return st
}

// --- Core operations -------------------------------------------------------

// MatMul returns a·b.
func (t *Tape) MatMul(a, b *Node) *Node {
	// opFull: MulTo zeroes each output row before accumulating into it.
	out := t.opFull(a.Value.Rows(), b.Value.Cols(), anyNeeds(a, b), backMatMul)
	out.a, out.b = a, b
	mat.MulTo(out.Value, a.Value, b.Value)
	return out
}

func backMatMul(out *Node) {
	a, b := out.a, out.b
	if a.needs {
		// dA += dOut · Bᵀ
		accumulateProduct(a, mat.MulBTTo, out.Grad, b.Value)
	}
	if b.needs {
		// dB += Aᵀ · dOut
		accumulateProduct(b, mat.MulTTo, a.Value, out.Grad)
	}
}

// accumulateProduct adds mul(x, y) to n's gradient. The first contribution
// to a gradient is computed straight into an uncleared lease instead of
// into a scratch that is then added to a zeroed gradient: the product
// kernels assign every element, and each element is a sum accumulated from
// +0, which is never −0 (x + y is −0 only when both are), so the 0 + x the
// old path performed returned x bit for bit. Later contributions keep
// scratch-then-add, so the association of the sum is unchanged.
func accumulateProduct(n *Node, mul func(dst, x, y *mat.Dense), x, y *mat.Dense) {
	t := n.tape
	r, c := n.Value.Dims()
	if n.Grad == nil {
		n.ghdr.Remake(r, c, t.arena.LeaseUninit(r*c))
		n.Grad = &n.ghdr
		mul(n.Grad, x, y)
		return
	}
	buf := t.arena.LeaseUninit(r * c)
	t.scratch.Remake(r, c, buf)
	mul(&t.scratch, x, y)
	n.Grad.AddScaled(&t.scratch, 1)
	t.arena.Release(buf)
}

// SpMM returns s·b for a constant sparse operator s (e.g. normalised graph
// adjacency). No gradient flows into s.
func (t *Tape) SpMM(s *mat.CSR, b *Node) *Node {
	r, _ := s.Dims()
	_, c := b.Value.Dims()
	out := t.opFull(r, c, b.needs, backSpMM) // SpMMTo zeroes dst first
	out.a = b
	out.sparse = s
	mat.SpMMTo(out.Value, s, b.Value)
	return out
}

func backSpMM(out *Node) {
	b, t := out.a, out.tape
	if !b.needs {
		return
	}
	ensureGrad(b)
	st := t.csrTranspose(out.sparse)
	r, c := b.Value.Dims()
	buf := t.arena.LeaseUninit(r * c) // SpMMTo zeroes dst first
	t.scratch.Remake(r, c, buf)
	mat.SpMMTo(&t.scratch, st, out.Grad)
	b.Grad.AddScaled(&t.scratch, 1)
	t.arena.Release(buf)
}

// Add returns a+b (same shape).
func (t *Tape) Add(a, b *Node) *Node {
	r, c := a.Value.Dims()
	out := t.opFull(r, c, anyNeeds(a, b), backAdd) // the loop assigns every od[i]
	out.a, out.b = a, b
	od, ad, bd := out.Value.Data(), a.Value.Data(), b.Value.Data()
	for i := range od {
		od[i] = ad[i] + bd[i]
	}
	return out
}

func backAdd(out *Node) {
	if out.a.needs {
		ensureGrad(out.a)
		out.a.Grad.AddScaled(out.Grad, 1)
	}
	if out.b.needs {
		ensureGrad(out.b)
		out.b.Grad.AddScaled(out.Grad, 1)
	}
}

// Sub returns a−b.
func (t *Tape) Sub(a, b *Node) *Node {
	r, c := a.Value.Dims()
	out := t.opFull(r, c, anyNeeds(a, b), backSub) // the loop assigns every od[i]
	out.a, out.b = a, b
	od, ad, bd := out.Value.Data(), a.Value.Data(), b.Value.Data()
	for i := range od {
		od[i] = ad[i] - bd[i]
	}
	return out
}

func backSub(out *Node) {
	if out.a.needs {
		ensureGrad(out.a)
		out.a.Grad.AddScaled(out.Grad, 1)
	}
	if out.b.needs {
		ensureGrad(out.b)
		out.b.Grad.AddScaled(out.Grad, -1)
	}
}

// AddRowBroadcast adds a 1×c bias row to every row of a (n×c).
func (t *Tape) AddRowBroadcast(a, bias *Node) *Node {
	n, c := a.Value.Dims()
	br, bc := bias.Value.Dims()
	if br != 1 || bc != c {
		panic(fmt.Sprintf("autodiff: AddRowBroadcast bias %dx%d for %dx%d", br, bc, n, c))
	}
	out := t.op(n, c, anyNeeds(a, bias), backAddRowBroadcast)
	out.a, out.b = a, bias
	copy(out.Value.Data(), a.Value.Data())
	for i := 0; i < n; i++ {
		mat.Axpy(out.Value.Row(i), bias.Value.Row(0), 1)
	}
	return out
}

func backAddRowBroadcast(out *Node) {
	a, bias := out.a, out.b
	n, _ := a.Value.Dims()
	if a.needs {
		ensureGrad(a)
		a.Grad.AddScaled(out.Grad, 1)
	}
	if bias.needs {
		ensureGrad(bias)
		g := bias.Grad.Row(0)
		for i := 0; i < n; i++ {
			mat.Axpy(g, out.Grad.Row(i), 1)
		}
	}
}

// Hadamard returns the element-wise product a⊙b.
func (t *Tape) Hadamard(a, b *Node) *Node {
	r, c := a.Value.Dims()
	out := t.op(r, c, anyNeeds(a, b), backHadamard)
	out.a, out.b = a, b
	od, ad, bd := out.Value.Data(), a.Value.Data(), b.Value.Data()
	for i := range od {
		od[i] = ad[i] * bd[i]
	}
	return out
}

func backHadamard(out *Node) {
	a, b := out.a, out.b
	og := out.Grad.Data()
	if a.needs {
		ensureGrad(a)
		ad, bv := a.Grad.Data(), b.Value.Data()
		for i := range ad {
			ad[i] += og[i] * bv[i]
		}
	}
	if b.needs {
		ensureGrad(b)
		bd, av := b.Grad.Data(), a.Value.Data()
		for i := range bd {
			bd[i] += og[i] * av[i]
		}
	}
}

// Scale returns s*a for a constant scalar s.
func (t *Tape) Scale(a *Node, s float64) *Node {
	r, c := a.Value.Dims()
	out := t.opFull(r, c, a.needs, backScale) // the loop assigns every od[i]
	out.a = a
	out.scalar = s
	od, ad := out.Value.Data(), a.Value.Data()
	for i := range od {
		od[i] = ad[i] * s
	}
	return out
}

func backScale(out *Node) {
	if out.a.needs {
		ensureGrad(out.a)
		out.a.Grad.AddScaled(out.Grad, out.scalar)
	}
}

// unary applies a static element-wise f with a static back function.
func (t *Tape) unary(a *Node, f func(float64) float64, back func(*Node)) *Node {
	r, c := a.Value.Dims()
	out := t.opFull(r, c, a.needs, back) // the copy covers the whole value
	out.a = a
	copy(out.Value.Data(), a.Value.Data())
	out.Value.Apply(f)
	return out
}

// ReLU applies max(0,x) element-wise: x where x > 0, +0 otherwise (NaN and
// −0 included).
func (t *Tape) ReLU(a *Node) *Node {
	r, c := a.Value.Dims()
	out := t.opFull(r, c, a.needs, backReLU) // ReLUTo assigns every element
	out.a = a
	mat.ReLUTo(out.Value, a.Value)
	return out
}

func backReLU(out *Node) {
	a := out.a
	if !a.needs {
		return
	}
	ensureGrad(a)
	ad, vd, gd := a.Grad.Data(), a.Value.Data(), out.Grad.Data()
	for i := range ad {
		d := 0.0
		if vd[i] > 0 {
			d = 1
		}
		ad[i] += gd[i] * d
	}
}

// Sigmoid applies the logistic function element-wise.
func (t *Tape) Sigmoid(a *Node) *Node { return t.unary(a, mat.Sigmoid, backSigmoid) }

func backSigmoid(out *Node) {
	a := out.a
	if !a.needs {
		return
	}
	ensureGrad(a)
	ad, gd, od := a.Grad.Data(), out.Grad.Data(), out.Value.Data()
	for i := range ad {
		ad[i] += gd[i] * (od[i] * (1 - od[i]))
	}
}

// Tanh applies tanh element-wise.
func (t *Tape) Tanh(a *Node) *Node { return t.unary(a, math.Tanh, backTanh) }

func backTanh(out *Node) {
	a := out.a
	if !a.needs {
		return
	}
	ensureGrad(a)
	ad, gd, od := a.Grad.Data(), out.Grad.Data(), out.Value.Data()
	for i := range ad {
		ad[i] += gd[i] * (1 - od[i]*od[i])
	}
}

// The three readouts below pool an n×c node into one 1×c row. They need
// n ≥ 1: MaxRows reads row 0 and panics on an empty node, so a caller
// rejects a graph with no nodes before it reaches a model.

// MeanRows returns the 1×c column-mean of an n×c node (graph mean readout).
func (t *Tape) MeanRows(a *Node) *Node {
	n, c := a.Value.Dims()
	out := t.opFull(1, c, a.needs, backMeanRows) // SumRowsTo clears the row first
	out.a = a
	inv := 1 / float64(n)
	out.scalar = inv
	mat.SumRowsTo(out.Value.Row(0), a.Value, inv)
	return out
}

func backMeanRows(out *Node) {
	a := out.a
	if !a.needs {
		return
	}
	ensureGrad(a)
	n, _ := a.Value.Dims()
	g := out.Grad.Row(0)
	inv := out.scalar
	for i := 0; i < n; i++ {
		mat.Axpy(a.Grad.Row(i), g, inv)
	}
}

// SumRows returns the 1×c column-sum of an n×c node (graph sum readout, as
// used by GIN).
func (t *Tape) SumRows(a *Node) *Node {
	_, c := a.Value.Dims()
	out := t.opFull(1, c, a.needs, backSumRows) // SumRowsTo clears the row first
	out.a = a
	mat.SumRowsTo(out.Value.Row(0), a.Value, 1)
	return out
}

func backSumRows(out *Node) {
	a := out.a
	if !a.needs {
		return
	}
	ensureGrad(a)
	n, _ := a.Value.Dims()
	g := out.Grad.Row(0)
	for i := 0; i < n; i++ {
		mat.Axpy(a.Grad.Row(i), g, 1)
	}
}

// MaxRows returns the 1×c column-wise maximum of an n×c node; the gradient
// routes to the arg-max row per column. Max readout preserves "a node with
// this pattern exists" signals that mean pooling dilutes on large graphs.
// The forward records no arg-max: explanation scoring runs it without a
// backward, so backMaxRows finds the row instead.
func (t *Tape) MaxRows(a *Node) *Node {
	_, c := a.Value.Dims()
	out := t.opFull(1, c, a.needs, backMaxRows) // MaxRowsTo assigns every element
	out.a = a
	mat.MaxRowsTo(out.Value.Row(0), a.Value)
	return out
}

// backMaxRows routes each column's gradient to the first row equal to the
// maximum, or to row 0 when the maximum is NaN. That is the row the forward's
// strict `>` scan settled on: the running maximum never falls, so a row
// equal to the final maximum (±0 compare equal) stops every later row from
// beating it, and a NaN maximum can only be row 0's, since a later NaN
// never wins.
func backMaxRows(out *Node) {
	a := out.a
	if !a.needs {
		return
	}
	ensureGrad(a)
	c := a.Value.Cols()
	av, ag, g := a.Value.Data(), a.Grad.Data(), out.Grad.Row(0)
	for j, m := range out.Value.Row(0) {
		k := j
		for k < len(av) && av[k] != m {
			k += c
		}
		if k >= len(av) {
			k = j
		}
		ag[k] += g[j]
	}
}

// ConcatCols concatenates nodes horizontally (same row count).
func (t *Tape) ConcatCols(parts ...*Node) *Node {
	rows, _ := parts[0].Value.Dims()
	total := 0
	for _, p := range parts {
		r, c := p.Value.Dims()
		if r != rows {
			panic("autodiff: ConcatCols row mismatch")
		}
		total += c
	}
	// opFull: the parts' widths sum to total, so the row copies tile the value.
	out := t.opFull(rows, total, anyNeeds(parts...), backConcatCols)
	out.parents = append(out.parents[:0], parts...)
	off := 0
	for _, p := range parts {
		_, c := p.Value.Dims()
		for i := 0; i < rows; i++ {
			copy(out.Value.Row(i)[off:off+c], p.Value.Row(i))
		}
		off += c
	}
	return out
}

func backConcatCols(out *Node) {
	rows, _ := out.Value.Dims()
	off := 0
	for _, p := range out.parents {
		_, c := p.Value.Dims()
		if p.needs {
			ensureGrad(p)
			for i := 0; i < rows; i++ {
				mat.Axpy(p.Grad.Row(i), out.Grad.Row(i)[off:off+c], 1)
			}
		}
		off += c
	}
}

// Zeros returns an r×c constant whose zeroed value the tape owns: the
// caller fills it before any op reads it, and Reset recycles it like an
// op's value. It is how a pass builds an input matrix without allocating.
func (t *Tape) Zeros(r, c int) *Node {
	return t.op(r, c, false, nil)
}

// Gather returns the rows of a that idx names, in idx's order: row i is a's
// row idx[i]. Its backward adds each output row's gradient into the row it
// came from, so a row named twice collects both. idx is caller-owned and
// must stay valid until Reset.
func (t *Tape) Gather(a *Node, idx []int) *Node {
	// opFull: one whole row is copied into every output row.
	out := t.opFull(len(idx), a.Value.Cols(), a.needs, backGather)
	out.a = a
	out.idx = idx
	for i, j := range idx {
		copy(out.Value.Row(i), a.Value.Row(j))
	}
	return out
}

func backGather(out *Node) {
	a := out.a
	if !a.needs {
		return
	}
	ensureGrad(a)
	for i, j := range out.idx {
		mat.Axpy(a.Grad.Row(j), out.Grad.Row(i), 1)
	}
}
