package gnn

import (
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
	ws.snapshot = append(ws.snapshot[:0], m.Params().Data()...)
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

	// The workspace's tape and binder serve the whole round: Reset+Rebind
	// per pair recycles every node and buffer, so the steady-state loop
	// allocates nothing. Each pass's gradients add into one slab whose mask
	// keeps what the batch touched — Adam steps only those (MAGNN
	// legitimately skips a projection when a graph has no nodes of that
	// space). The slab, like the snapshot, is the workspace's from round to
	// round.
	tape, binder := ws.tape, ws.binder
	if ws.grads == nil {
		ws.grads = new(autodiff.Grads)
	}
	grads := ws.grads
	grads.Rebind(m.Params())
	remaining := cfg.PairsPerEpoch
	for remaining > 0 {
		batch := min(batchPairs, remaining)
		remaining -= batch
		grads.Reset()
		batchLoss := 0.0
		for k := 0; k < batch; k++ {
			ga, gb, diff := samplePair()
			tape.Reset()
			binder.Rebind(tape, m.Params())
			za := m.Forward(tape, binder, ga)
			zb := m.Forward(tape, binder, gb)
			loss := tape.ContrastiveLoss(za, zb, diff, margin)
			loss = tape.Scale(loss, 1/float64(batch))
			batchLoss += loss.Value.At(0, 0)
			tape.Backward(loss)
			grads.Add(binder)
		}
		// Divergence gate: a NaN/Inf loss or gradient means this round is
		// poisoning the weights — roll back instead of propagating.
		if !mat.AllFinite([]float64{batchLoss}) || !grads.Finite() {
			tm.diverged.Inc()
			m.Params().SetFlatten(ws.snapshot)
			return false
		}
		tm.loss.Set(batchLoss)
		norm := autodiff.ClipGrads(grads, gradClip)
		tm.gradNorm.Set(norm)
		if norm > gradClip {
			tm.clips.Inc()
		}
		opt.Step(m.Params(), grads)
	}
	tm.rounds.Inc()
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
// graph labels. Both optimisers are caller-owned.
func TrainSupervised(m Model, head *SupervisedHead, graphs []*graph.Graph,
	cfg TrainConfig, opt, headOpt *autodiff.Adam, classWeights []float64) {
	if len(graphs) == 0 {
		return
	}
	ws := borrowWorkspace()
	ws.trainSupervised(m, head, graphs, cfg, opt, headOpt, classWeights)
	ws.park()
}

func (ws *Workspace) trainSupervised(m Model, head *SupervisedHead, graphs []*graph.Graph,
	cfg TrainConfig, opt, headOpt *autodiff.Adam, classWeights []float64) {
	r := rng.New(cfg.Seed)
	tape, binder := ws.tape, ws.binder
	hb := autodiff.Bind(tape, head.params)
	grads, headGrads := autodiff.NewGrads(m.Params()), autodiff.NewGrads(head.params)
	lab := make([]int, 1)
	remaining := cfg.PairsPerEpoch
	for remaining > 0 {
		batch := min(batchPairs, remaining)
		remaining -= batch
		grads.Reset()
		headGrads.Reset()
		for k := 0; k < batch; k++ {
			g := graphs[r.Intn(len(graphs))]
			lab[0] = 0
			if g.Label {
				lab[0] = 1
			}
			tape.Reset()
			binder.Rebind(tape, m.Params())
			hb.Rebind(tape, head.params)
			z := m.Forward(tape, binder, g)
			logits := tape.AddRowBroadcast(tape.MatMul(z, hb.Node("head.w")), hb.Node("head.b"))
			loss := tape.SoftmaxCrossEntropy(logits, lab, classWeights)
			loss = tape.Scale(loss, 1/float64(batch))
			tape.Backward(loss)
			grads.Add(binder)
			headGrads.Add(hb)
		}
		autodiff.ClipGrads(grads, gradClip)
		autodiff.ClipGrads(headGrads, gradClip)
		opt.Step(m.Params(), grads)
		headOpt.Step(head.params, headGrads)
	}
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
