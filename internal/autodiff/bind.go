package autodiff

import "slices"

// Binder binds a ParamSet onto a tape for one forward pass, memoising the
// parameter nodes so each matrix appears once per pass (gradients then
// accumulate correctly when a parameter is used multiple times).
type Binder struct {
	tape   *Tape
	params *ParamSet
	nodes  []*Node // per parameter position; nil until bound this pass
}

// Bind creates a Binder for params on tape.
func Bind(t *Tape, params *ParamSet) *Binder {
	b := &Binder{}
	b.Rebind(t, params)
	return b
}

// Rebind points the binder at a (usually freshly Reset) tape for the next
// pass, forgetting the previous pass's parameter nodes but keeping their
// storage. Training loops call Reset+Rebind per pass instead of allocating
// a new tape and binder per pass.
func (b *Binder) Rebind(t *Tape, params *ParamSet) {
	b.tape = t
	b.params = params
	clear(b.nodes) // every element past len is nil already
	b.nodes = b.nodes[:0]
	if params != nil {
		b.nodes = slices.Grow(b.nodes, len(params.params))[:len(params.params)]
	}
}

// Node returns the tape node for the named parameter, creating it on first
// use in this pass.
func (b *Binder) Node(name string) *Node {
	i := b.params.pos(name)
	if n := b.nodes[i]; n != nil {
		return n
	}
	n := b.tape.Param(b.params.vals[i])
	b.nodes[i] = n
	return n
}
