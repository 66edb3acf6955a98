package nn

import (
	"fmt"
	"sort"

	"fexiot/internal/autodiff"
	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// LSTM is a single-layer LSTM language model over a discrete event
// vocabulary, trained to predict the next event from a fixed-length history
// window — the architecture DeepLog (Du et al., CCS 2017) uses for log
// anomaly detection (Table II baseline).
type LSTM struct {
	Vocab  int // number of distinct event types
	Hidden int
	Window int // history length
	Epochs int
	LR     float64
	Seed   int64
	// TopK: a next event outside the model's top-K predictions is an
	// anomaly (DeepLog's detection rule).
	TopK int

	params *autodiff.ParamSet
}

// NewLSTM creates a DeepLog-style LSTM model.
func NewLSTM(vocab, hidden, window int, epochs int, lr float64, seed int64) *LSTM {
	return &LSTM{Vocab: vocab, Hidden: hidden, Window: window,
		Epochs: epochs, LR: lr, Seed: seed, TopK: 3}
}

func (l *LSTM) initParams() {
	r := rng.New(l.Seed)
	p := autodiff.NewParamSet()
	in := l.Vocab + l.Hidden
	// Gate weights: input, forget, output, candidate.
	for _, gate := range []string{"i", "f", "o", "g"} {
		p.Register("w"+gate, 0, r.Glorot(in, l.Hidden))
		b := mat.NewDense(1, l.Hidden)
		if gate == "f" {
			b.Fill(1) // forget-gate bias trick for gradient flow
		}
		p.Register("b"+gate, 0, b)
	}
	p.Register("wy", 1, r.Glorot(l.Hidden, l.Vocab))
	p.Register("by", 1, mat.NewDense(1, l.Vocab))
	l.params = p
}

// oneHot encodes event id e as a 1×V matrix.
func (l *LSTM) oneHot(e int) *mat.Dense {
	v := mat.NewDense(1, l.Vocab)
	if e >= 0 && e < l.Vocab {
		v.Set(0, e, 1)
	}
	return v
}

// step runs one LSTM cell step on the tape.
func (l *LSTM) step(t *autodiff.Tape, b *autodiff.Binder, x, h, c *autodiff.Node) (hNext, cNext *autodiff.Node) {
	xh := t.ConcatCols(x, h)
	gate := func(name string, act func(*autodiff.Node) *autodiff.Node) *autodiff.Node {
		z := t.MatMul(xh, b.Node("w"+name))
		z = t.AddRowBroadcast(z, b.Node("b"+name))
		return act(z)
	}
	i := gate("i", t.Sigmoid)
	f := gate("f", t.Sigmoid)
	o := gate("o", t.Sigmoid)
	g := gate("g", t.Tanh)
	cNext = t.Add(t.Hadamard(f, c), t.Hadamard(i, g))
	hNext = t.Hadamard(o, t.Tanh(cNext))
	return hNext, cNext
}

// lstmScratch holds the reusable constant inputs of a serial training
// loop: the zero initial state and one one-hot buffer per window position.
// The tape treats constants as caller-owned, so reusing them across
// Reset+Rebind passes is free.
type lstmScratch struct {
	h0, c0 *mat.Dense
	xs     []*mat.Dense
}

func (l *LSTM) newScratch() *lstmScratch {
	s := &lstmScratch{h0: mat.NewDense(1, l.Hidden), c0: mat.NewDense(1, l.Hidden)}
	s.xs = make([]*mat.Dense, l.Window)
	for i := range s.xs {
		s.xs[i] = mat.NewDense(1, l.Vocab)
	}
	return s
}

// forwardScratch unrolls the LSTM over a window using the scratch's
// constant buffers and returns the next-event logits node.
func (l *LSTM) forwardScratch(t *autodiff.Tape, b *autodiff.Binder, window []int, s *lstmScratch) *autodiff.Node {
	h := t.Constant(s.h0)
	c := t.Constant(s.c0)
	for k, e := range window {
		x := s.xs[k]
		x.Zero()
		if e >= 0 && e < l.Vocab {
			x.Set(0, e, 1)
		}
		h, c = l.step(t, b, t.Constant(x), h, c)
	}
	logits := t.MatMul(h, b.Node("wy"))
	return t.AddRowBroadcast(logits, b.Node("by"))
}

// forward unrolls the LSTM over a window of event ids and returns the
// next-event logits node.
func (l *LSTM) forward(t *autodiff.Tape, b *autodiff.Binder, window []int) *autodiff.Node {
	h := t.Constant(mat.NewDense(1, l.Hidden))
	c := t.Constant(mat.NewDense(1, l.Hidden))
	for _, e := range window {
		x := t.Constant(l.oneHot(e))
		h, c = l.step(t, b, x, h, c)
	}
	logits := t.MatMul(h, b.Node("wy"))
	return t.AddRowBroadcast(logits, b.Node("by"))
}

// Fit trains the model on event sequences (each a slice of event ids).
// Training pairs are every (window, next-event) slice of every sequence.
func (l *LSTM) Fit(sequences [][]int) {
	l.initParams()
	type sample struct {
		win  []int
		next int
	}
	var samples []sample
	for _, seq := range sequences {
		for i := 0; i+l.Window < len(seq); i++ {
			samples = append(samples, sample{
				win:  seq[i : i+l.Window],
				next: seq[i+l.Window],
			})
		}
	}
	if len(samples) == 0 {
		return
	}
	opt := autodiff.NewAdam(l.LR)
	r := rng.New(l.Seed + 3)
	tape := autodiff.NewTape()
	binder := autodiff.Bind(tape, l.params)
	grads := autodiff.NewGrads(l.params)
	scratch := l.newScratch()
	lab := make([]int, 1)
	for e := 0; e < l.Epochs; e++ {
		r.Shuffle(len(samples), func(i, j int) {
			samples[i], samples[j] = samples[j], samples[i]
		})
		for _, s := range samples {
			tape.Reset()
			binder.Rebind(tape, l.params)
			logits := l.forwardScratch(tape, binder, s.win, scratch)
			lab[0] = s.next
			loss := tape.SoftmaxCrossEntropy(logits, lab, nil)
			tape.Backward(loss)
			grads.Reset()
			grads.Add(binder)
			autodiff.ClipGrads(grads, 5)
			opt.Step(l.params, grads)
		}
	}
}

// PredictLogits returns next-event logits for a history window.
func (l *LSTM) PredictLogits(window []int) []float64 {
	if l.params == nil {
		return make([]float64, l.Vocab)
	}
	s := borrow(l.params)
	defer s.release()
	out := l.forward(s.tape, s.binder, window)
	return append([]float64(nil), out.Value.Row(0)...)
}

// InTopK reports whether event is among the model's top-K next-event
// predictions after the window.
func (l *LSTM) InTopK(window []int, event int) bool {
	logits := l.PredictLogits(window)
	type iv struct {
		i int
		v float64
	}
	order := make([]iv, len(logits))
	for i, v := range logits {
		order[i] = iv{i, v}
	}
	sort.Slice(order, func(a, b int) bool { return order[a].v > order[b].v })
	k := l.TopK
	if k > len(order) {
		k = len(order)
	}
	for i := 0; i < k; i++ {
		if order[i].i == event {
			return true
		}
	}
	return false
}

// AnomalyRate returns the fraction of (window, next) transitions of seq the
// model finds anomalous; DeepLog flags a sequence when any transition is
// anomalous, but the rate is a smoother detector score. Transitions are
// scored concurrently under the shared mat parallelism bound — each is an
// independent read-only forward pass writing only its own flag.
func (l *LSTM) AnomalyRate(seq []int) float64 {
	total := len(seq) - l.Window
	if total <= 0 {
		return 0
	}
	anomalous := make([]bool, total)
	mat.ParallelFor(total, func(i int) {
		anomalous[i] = !l.InTopK(seq[i:i+l.Window], seq[i+l.Window])
	})
	anomalies := 0
	for _, a := range anomalous {
		if a {
			anomalies++
		}
	}
	return float64(anomalies) / float64(total)
}

// String describes the architecture.
func (l *LSTM) String() string {
	return fmt.Sprintf("LSTM(V=%d,H=%d,W=%d)", l.Vocab, l.Hidden, l.Window)
}
