package gnn

import (
	"math"
	"slices"

	"fexiot/internal/autodiff"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/ml"
	"fexiot/internal/obs"
	"fexiot/internal/rng"
)

// TrainConfig controls contrastive representation learning (Eq. 2).
type TrainConfig struct {
	// LR is the learning rate the caller builds its Adam with (paper:
	// 0.001); training never reads it, since the caller's optimiser
	// carries the rate.
	LR            float64
	PairsPerEpoch int // pairs sampled per call (TrainSupervised: graphs)
	Seed          int64
	// Metrics, when non-nil, receives training telemetry: contrastive loss,
	// gradient norm, clip and divergence events, and per-round training
	// time. Nil (the default) keeps training on the zero-overhead path.
	Metrics *obs.Registry
}

// trainMetrics are the nil-gated telemetry handles of one training round.
type trainMetrics struct {
	loss     *obs.Gauge     // fexiot_train_loss
	gradNorm *obs.Gauge     // fexiot_train_grad_norm
	clips    *obs.Counter   // fexiot_train_grad_clip_total
	diverged *obs.Counter   // fexiot_train_divergence_total
	rounds   *obs.Counter   // fexiot_train_rounds_total
	roundDur *obs.Histogram // fexiot_train_round_duration_seconds
}

// newTrainMetrics resolves the handles; with a nil registry every handle is
// nil and each telemetry call collapses to a nil check.
func newTrainMetrics(r *obs.Registry) trainMetrics {
	return trainMetrics{
		loss:     r.Gauge("fexiot_train_loss", "contrastive loss of the most recent training batch"),
		gradNorm: r.Gauge("fexiot_train_grad_norm", "pre-clip global gradient norm of the most recent optimiser step"),
		clips:    r.Counter("fexiot_train_grad_clip_total", "optimiser steps whose gradient norm was clipped"),
		diverged: r.Counter("fexiot_train_divergence_total", "training rounds aborted and rolled back on loss divergence or non-finite values"),
		rounds:   r.Counter("fexiot_train_rounds_total", "completed local contrastive training rounds"),
		roundDur: r.Histogram("fexiot_train_round_duration_seconds", "wall time of one local contrastive training round", nil),
	}
}

// The training settings every caller runs with.
const (
	margin     = 2.0 // the distance threshold k in Eq. (2)
	batchPairs = 8   // pairs accumulated per optimiser step
	gradClip   = 5.0 // bound on the global gradient norm of every step
)

// DefaultTrainConfig mirrors the paper's training setup.
func DefaultTrainConfig(seed int64) TrainConfig {
	return TrainConfig{LR: 0.001, PairsPerEpoch: 64, Seed: seed}
}

// TrainContrastive runs contrastive training of the model on labelled
// graphs, sampling same-class and different-class pairs in roughly equal
// proportion. The optimiser is owned by the caller so federated clients
// keep momentum state across rounds.
//
// The loop is divergence-safe: a non-finite batch loss or gradient aborts
// the round and restores the weights captured at entry, so divergence
// never propagates NaN into the federation. It returns false on such an
// abort and true when the round completed.
//
// The tape comes from the package's workspace pool and goes back when the
// round ends, so a caller that returns once per federated round finds its
// arena warm instead of re-allocating every buffer.
func TrainContrastive(m Model, graphs []*graph.Graph, cfg TrainConfig, opt *autodiff.Adam) bool {
	if len(graphs) < 2 {
		return true
	}
	ws := borrowWorkspace()
	ok := ws.trainContrastive(m, graphs, cfg, opt)
	ws.park()
	return ok
}

func (ws *Workspace) trainContrastive(m Model, graphs []*graph.Graph, cfg TrainConfig, opt *autodiff.Adam) bool {
	tm := newTrainMetrics(cfg.Metrics)
	sp := obs.StartSpan(tm.roundDur)
	defer sp.End()
	r := rng.New(cfg.Seed)
	var pos, neg []int
	for i, g := range graphs {
		if g.Label {
			pos = append(pos, i)
		} else {
			neg = append(neg, i)
		}
	}
	samplePair := func() (a, b *graph.Graph, diff bool) {
		if len(pos) > 0 && len(neg) > 0 && r.Bool(0.5) {
			return graphs[pos[r.Intn(len(pos))]], graphs[neg[r.Intn(len(neg))]], true
		}
		pool := neg
		if len(pool) < 2 || (len(pos) >= 2 && r.Bool(0.5)) {
			pool = pos
		}
		if len(pool) < 2 {
			i, j := r.Intn(len(graphs)), r.Intn(len(graphs))
			return graphs[i], graphs[j], graphs[i].Label != graphs[j].Label
		}
		i := r.Intn(len(pool))
		j := r.Intn(len(pool))
		for j == i && len(pool) > 1 {
			j = r.Intn(len(pool))
		}
		return graphs[pool[i]], graphs[pool[j]], false
	}

	// A step's pairs are drawn before any of them is forwarded; the
	// sampler is the generator's only consumer, so the draws are the ones
	// a pair-at-a-time loop makes.
	var diff [batchPairs]bool
	t := ws.tape
	ok := ws.train(m, nil, cfg.PairsPerEpoch, tm, opt, func(st *step, batch int) {
		for k := 0; k < batch; k++ {
			a, b, d := samplePair()
			st.draw(a)
			st.draw(b)
			diff[k] = d
		}
	}, func(st *step, k int) *autodiff.Node {
		return t.ContrastiveLoss(st.emb(2*k), st.emb(2*k+1), diff[k], margin)
	})
	if ok {
		tm.rounds.Inc()
	}
	return ok
}

// coTrained is a parameter set a round trains alongside the model — the
// supervised head — with its own binder on the round's tape, gradient
// slab, optimiser, and the values it rolls back to.
type coTrained struct {
	params   *autodiff.ParamSet
	binder   *autodiff.Binder
	grads    *autodiff.Grads
	opt      *autodiff.Adam
	snapshot []float64
}

// train is the step loop of both objectives. Each optimiser step draws
// its batch (draw, up to batchPairs loss terms) and runs backward over it.
// A non-finite loss or gradient means the round is poisoning the weights:
// it rolls the model (and head) back to their values at entry and returns
// false. Otherwise the gradients are clipped and stepped.
//
// The workspace's tape, binder and step buffers serve the whole round:
// Reset+Rebind per step recycles every node and buffer, so the steady-state
// loop allocates nothing. The gradient slab's mask keeps what the batch
// touched — Adam steps only those (MAGNN legitimately skips a projection
// when no drawn graph has nodes of that space). The slab, like the
// snapshot, is the workspace's from round to round.
func (ws *Workspace) train(m Model, head *coTrained, terms int, tm trainMetrics, opt *autodiff.Adam,
	draw func(st *step, batch int), loss func(st *step, k int) *autodiff.Node) bool {
	ws.snapshot = append(ws.snapshot[:0], m.Params().Data()...)
	if ws.grads == nil {
		ws.grads = new(autodiff.Grads)
	}
	grads := ws.grads
	grads.Rebind(m.Params())
	for remaining := terms; remaining > 0; {
		batch := min(batchPairs, remaining)
		remaining -= batch
		ws.step.reset()
		draw(&ws.step, batch)
		batchLoss := ws.backward(m, head, batch, loss)
		if math.IsNaN(batchLoss) || math.IsInf(batchLoss, 0) || !grads.Finite() ||
			head != nil && !head.grads.Finite() {
			tm.diverged.Inc()
			m.Params().SetFlatten(ws.snapshot)
			if head != nil {
				head.params.SetFlatten(head.snapshot)
			}
			return false
		}
		tm.loss.Set(batchLoss)
		norm := autodiff.ClipGrads(grads, gradClip)
		tm.gradNorm.Set(norm)
		if norm > gradClip {
			tm.clips.Inc()
		}
		opt.Step(m.Params(), grads)
		if head != nil {
			autodiff.ClipGrads(head.grads, gradClip)
			head.opt.Step(head.params, head.grads)
		}
	}
	return true
}

// backward is one optimiser step's pass on one tape: it forwards the
// drawn graphs, each distinct graph once, sums the batch's loss terms —
// term k is loss(st, k), scaled by 1/batch — into one loss, runs one
// Backward, and sets the gradient slabs (the model's, and the head's) to
// its gradients. It returns the loss.
func (ws *Workspace) backward(m Model, head *coTrained, batch int, loss func(st *step, k int) *autodiff.Node) float64 {
	t := ws.tape
	t.Reset()
	ws.binder.Rebind(t, m.Params())
	if head != nil {
		head.binder.Rebind(t, head.params)
	}
	ws.step.forward(m, t, ws.binder)
	var total *autodiff.Node
	for k := 0; k < batch; k++ {
		term := t.Scale(loss(&ws.step, k), 1/float64(batch))
		if total != nil {
			term = t.Add(total, term)
		}
		total = term
	}
	t.Backward(total)
	ws.grads.Reset()
	ws.grads.Add(ws.binder)
	if head != nil {
		head.grads.Reset()
		head.grads.Add(head.binder)
	}
	return total.Value.At(0, 0)
}

// tableRows is the granule of a step's row table.
const tableRows = 16

// step is one optimiser step's forward pass: the graphs its draws name,
// each forwarded once on the step's tape. For a rowwise model the graphs'
// distinct node rows — rows bitwise equal in feature space and bits, found
// by the graphs' cached row keys — are projected once, by one product, and
// each graph takes its nodes' rows of that projection through one Gather,
// whose backward adds them back. Any other Model forwards each graph alone.
type step struct {
	graphs []*graph.Graph   // the distinct graphs drawn, first draw first
	draws  []int            // each draw's graph, as its position in graphs
	z      []*autodiff.Node // each graph's embedding

	rows  []graph.Node   // the graphs' distinct node rows, first seen first
	at    []int          // graph after graph, each node's position in rows
	ends  []int          // graph i's nodes are at[ends[i-1]:ends[i]]
	first map[uint64]int // a row key → the latest row with that key
	next  []int          // a row → the row before it with its key, or −1
}

// reset forgets the previous step, its graphs and rows included, so a
// parked workspace holds none of its borrower's.
func (s *step) reset() {
	clear(s.graphs)
	clear(s.z)
	clear(s.rows)
	s.graphs, s.draws, s.z = s.graphs[:0], s.draws[:0], s.z[:0]
	s.rows, s.at, s.ends, s.next = s.rows[:0], s.at[:0], s.ends[:0], s.next[:0]
	clear(s.first)
}

// draw adds one draw of g.
func (s *step) draw(g *graph.Graph) {
	i := slices.Index(s.graphs, g)
	if i < 0 {
		i = len(s.graphs)
		s.graphs = append(s.graphs, g)
	}
	s.draws = append(s.draws, i)
}

// emb is draw k's embedding.
func (s *step) emb(k int) *autodiff.Node { return s.z[s.draws[k]] }

// forward puts every drawn graph's embedding on t.
func (s *step) forward(m Model, t *autodiff.Tape, b *autodiff.Binder) {
	rm, ok := m.(rowwise)
	if !ok {
		for _, g := range s.graphs {
			s.z = append(s.z, m.Forward(t, b, g))
		}
		return
	}
	if s.first == nil {
		s.first = map[uint64]int{}
	}
	for _, g := range s.graphs {
		for v, key := range g.CachedRowKeys() {
			s.at = append(s.at, s.row(&g.Nodes[v], key))
		}
		s.ends = append(s.ends, len(s.at))
	}
	// The table's row count is rounded up to a multiple of tableRows, so
	// that its buffers come in a few sizes the tape's arena keeps rather
	// than one per count of distinct rows; zero rows add nothing to the
	// projection's gradient, and no graph gathers them.
	p := rm.project(t, b, s.rows, (len(s.rows)+tableRows-1)/tableRows*tableRows)
	lo := 0
	for i, g := range s.graphs {
		s.z = append(s.z, propagate(rm, t, b, g, t.Gather(p, s.at[lo:s.ends[i]])))
		lo = s.ends[i]
	}
}

// row is the position in rows of n's row, which has the given key; a row
// not seen yet this step is appended.
func (s *step) row(n *graph.Node, key uint64) int {
	head, ok := s.first[key]
	if !ok {
		head = -1
	}
	for r := head; r >= 0; r = s.next[r] {
		if sameRow(&s.rows[r], n) {
			return r
		}
	}
	s.rows = append(s.rows, *n)
	s.next = append(s.next, head)
	s.first[key] = len(s.rows) - 1
	return len(s.rows) - 1
}

// sameRow reports whether two nodes' rows are bitwise equal: one feature
// space, and features of one length whose values have the same bits.
func sameRow(a, b *graph.Node) bool {
	if a.Space != b.Space || len(a.Feature) != len(b.Feature) {
		return false
	}
	for i, x := range a.Feature {
		if math.Float64bits(x) != math.Float64bits(b.Feature[i]) {
			return false
		}
	}
	return true
}

// SupervisedHead is a linear classification head trained jointly with the
// model under weighted cross-entropy — the ablation counterpart of the
// paper's contrastive objective (DESIGN.md §4.2).
type SupervisedHead struct {
	params *autodiff.ParamSet
}

// NewSupervisedHead creates a head for a model's embedding width.
func NewSupervisedHead(embedDim int, seed int64) *SupervisedHead {
	r := rng.New(seed)
	p := autodiff.NewParamSet()
	p.Register("head.w", 0, r.Glorot(embedDim, 2))
	p.Register("head.b", 0, mat.NewDense(1, 2))
	return &SupervisedHead{params: p}
}

// TrainSupervised trains model+head jointly with weighted cross-entropy on
// graph labels, PairsPerEpoch graphs drawn a call. Both optimisers are
// caller-owned. Like TrainContrastive it is divergence-safe: a non-finite
// loss or gradient restores the model's and the head's weights at entry
// and returns false.
func TrainSupervised(m Model, head *SupervisedHead, graphs []*graph.Graph,
	cfg TrainConfig, opt, headOpt *autodiff.Adam, classWeights []float64) bool {
	if len(graphs) == 0 {
		return true
	}
	ws := borrowWorkspace()
	ok := ws.trainSupervised(m, head, graphs, cfg, opt, headOpt, classWeights)
	ws.park()
	return ok
}

func (ws *Workspace) trainSupervised(m Model, head *SupervisedHead, graphs []*graph.Graph,
	cfg TrainConfig, opt, headOpt *autodiff.Adam, classWeights []float64) bool {
	r := rng.New(cfg.Seed)
	t := ws.tape
	h := &coTrained{params: head.params, binder: autodiff.Bind(t, head.params),
		grads: autodiff.NewGrads(head.params), opt: headOpt, snapshot: head.params.Flatten()}
	labels := []int{0, 1} // label l is labels[l : l+1], valid until Reset
	return ws.train(m, h, cfg.PairsPerEpoch, trainMetrics{}, opt, func(st *step, batch int) {
		for k := 0; k < batch; k++ {
			st.draw(graphs[r.Intn(len(graphs))])
		}
	}, func(st *step, k int) *autodiff.Node {
		lab := 0
		if st.graphs[st.draws[k]].Label {
			lab = 1
		}
		logits := t.AddRowBroadcast(t.MatMul(st.emb(k), h.binder.Node("head.w")), h.binder.Node("head.b"))
		return t.SoftmaxCrossEntropy(logits, labels[lab:lab+1], classWeights)
	})
}

// PredictSupervised classifies a graph with the trained head.
func (h *SupervisedHead) Predict(m Model, g *graph.Graph) int {
	z := Embed(m, g)
	w := h.params.Get("head.w")
	b := h.params.Get("head.b")
	logit0, logit1 := b.At(0, 0), b.At(0, 1)
	for i, v := range z {
		logit0 += v * w.At(i, 0)
		logit1 += v * w.At(i, 1)
	}
	if logit1 >= logit0 {
		return 1
	}
	return 0
}

// Detector couples a graph representation model with the local linear
// classifier of §III-B1 (an SGDClassifier on graph embeddings).
type Detector struct {
	Model Model
	Clf   *ml.SGDClassifier
}

// NewDetector wires a model to a fresh SGD classifier.
func NewDetector(m Model, seed int64) *Detector {
	clf := ml.NewSGDClassifier(30, 0.1, seed)
	return &Detector{Model: m, Clf: clf}
}

// FitClassifier trains the linear head on the embeddings of the labelled
// graphs, with inverse-frequency class weights (the paper's imbalance
// handling), and returns those embeddings, one caller-owned row per graph
// (nil for no graphs), so that whatever is fitted next on the same model and
// graphs — the drift detector — need not embed them again.
func (d *Detector) FitClassifier(graphs []*graph.Graph) [][]float64 {
	if len(graphs) == 0 {
		return nil
	}
	x := EmbedAll(d.Model, graphs)
	y := make([]int, len(graphs))
	pos := 0
	for i, g := range graphs {
		if g.Label {
			y[i] = 1
			pos++
		}
	}
	neg := len(graphs) - pos
	if pos > 0 && neg > 0 {
		total := float64(len(graphs))
		d.Clf.ClassWeights = []float64{total / (2 * float64(neg)),
			total / (2 * float64(pos))}
	}
	d.Clf.Fit(x, y)
	return x
}

// Score returns the vulnerability probability of a graph.
func (d *Detector) Score(g *graph.Graph) float64 {
	return d.Clf.Score(Embed(d.Model, g))
}

// Predict thresholds Score at 0.5.
func (d *Detector) Predict(g *graph.Graph) int {
	if d.Score(g) >= 0.5 {
		return 1
	}
	return 0
}

// EvaluateDetector computes detection metrics over labelled graphs. The
// per-graph predictions are independent read-only passes, so they run
// under the shared mat parallelism bound; each index owns its own output
// slot, keeping the metrics deterministic.
func EvaluateDetector(d *Detector, graphs []*graph.Graph) ml.Metrics {
	pred := make([]int, len(graphs))
	truth := make([]int, len(graphs))
	mat.ParallelFor(len(graphs), func(i int) {
		pred[i] = d.Predict(graphs[i])
		if graphs[i].Label {
			truth[i] = 1
		}
	})
	return ml.Evaluate(pred, truth)
}
