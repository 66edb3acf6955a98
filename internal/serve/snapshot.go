// Package serve implements the concurrent, snapshot-isolated inference
// engine: the online serving path the paper's deployment story implies
// (real-time vulnerability detection across platforms) but that the
// experiment pipeline never needed. The design splits the system into a
// mutable training side and an immutable serving side:
//
//   - A Snapshot is a deep-frozen copy of everything Detect/Explain reads —
//     GNN weights, classifier state, drift centroids and thresholds, search
//     configuration. Once constructed it is never written again, so any
//     number of requests may read it concurrently without locks.
//   - An Engine holds the live snapshot in an atomic.Pointer and swaps it
//     lock-free when training publishes a new global model. A request loads
//     the pointer exactly once and finishes entirely on that snapshot:
//     a swap mid-request can never tear a verdict across two models.
//
// Requests run on a bounded worker pool sized from mat.Parallelism (the
// bound mat.ParallelFor's fan-outs use), each on its worker's own
// long-lived inference workspace, with per-request context deadlines.
package serve

import (
	"context"
	"time"

	"fexiot/internal/drift"
	"fexiot/internal/explain"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/ml"
	"fexiot/internal/rules"
)

// Verdict is a detection outcome.
type Verdict struct {
	Vulnerable bool
	Score      float64 // vulnerability probability
	Drifting   bool    // outside the training distribution (§III-B3)
	// DriftScore is the MAD-normalised out-of-distribution deviation A^k;
	// values above the fitted threshold set Drifting.
	DriftScore float64
}

// Explanation is a detected root-cause subgraph.
type Explanation struct {
	NodeIndices []int
	Rules       []*rules.Rule
	Score       float64
	Fidelity    float64
	Sparsity    float64
}

// Snapshot is an immutable, deep-frozen copy of the inference state. All
// fields are private and never mutated after NewSnapshot returns, which is
// the entire concurrency contract: readers share it freely, writers build
// a new one.
type Snapshot struct {
	seq     uint64
	created time.Time
	det     *gnn.Detector
	drf     *drift.Detector // nil when drift was never fitted
	search  explain.SearchConfig
}

// NewSnapshot deep-copies the detector and drift state into a frozen
// snapshot stamped with a publish sequence number. The model weights are
// copied into a fresh architecture-identical instance, the classifier and
// drift statistics are cloned, so no later training step — central,
// federated, or a direct Fit on the originals — can reach the snapshot.
// drf may be nil (verdicts then carry no drift signal).
func NewSnapshot(seq uint64, det *gnn.Detector, drf *drift.Detector,
	search explain.SearchConfig) *Snapshot {
	m := det.Model.Fresh(0)
	m.Params().CopyFrom(det.Model.Params())
	return &Snapshot{
		seq:     seq,
		created: time.Now(),
		det:     &gnn.Detector{Model: m, Clf: det.Clf.Clone()},
		drf:     drf.Clone(),
		search:  search,
	}
}

// Seq is the monotonically increasing publish sequence number.
func (s *Snapshot) Seq() uint64 { return s.seq }

// Created is the instant the snapshot was frozen (snapshot age = now −
// Created).
func (s *Snapshot) Created() time.Time { return s.created }

// Detect classifies one interaction graph against the frozen model.
func (s *Snapshot) Detect(g *graph.Graph) Verdict {
	z := gnn.Embed(s.det.Model, g)
	return s.verdictFromEmbedding(z)
}

// DetectWith classifies one graph using a caller-owned inference workspace,
// the zero-allocation path long-lived workers take: the forward pass runs
// entirely on the workspace's recycled tape memory and the embedding is
// consumed before the call returns. The verdict is bit-identical to Detect.
func (s *Snapshot) DetectWith(ws *gnn.Workspace, g *graph.Graph) Verdict {
	return s.verdictFromEmbedding(ws.Embed(s.det.Model, g))
}

func (s *Snapshot) verdictFromEmbedding(z []float64) Verdict {
	score := s.det.Clf.Score(z)
	v := Verdict{Vulnerable: score >= 0.5, Score: score}
	if s.drf != nil {
		v.DriftScore = s.drf.Anomaly(z)
		v.Drifting = s.drf.IsDrifting(z)
	}
	return v
}

// Explain runs the SHAP-guided Monte Carlo beam search (Algorithm 2)
// against the frozen model and returns the highest-risk connected
// subgraph. All sampling derives from the snapshot's search seed, so
// concurrent Explain calls on the same snapshot and graph return identical
// explanations.
func (s *Snapshot) Explain(g *graph.Graph) Explanation {
	// Background is never cancelled, which is explain's only error.
	out, _, _ := s.explain(context.Background(), nil, g)
	return out
}

// explain is Explain on a caller-owned workspace (nil borrows a pooled one,
// once for the whole search) under a context the search checks before each
// reward evaluation. Every score of the search and of the fidelity goes
// through one gnn.GraphScorer, whose counters come back with the result.
func (s *Snapshot) explain(ctx context.Context, ws *gnn.Workspace, g *graph.Graph) (Explanation, gnn.ScorerStats, error) {
	sc := s.det.Scorer(ws, g)
	ex, err := explain.Search(ctx, sc, g, s.search, explain.MethodFexIoT)
	if err != nil {
		sc.Release()
		return Explanation{}, sc.Stats(), err
	}
	out := Explanation{
		NodeIndices: ex.Nodes,
		Score:       ex.Score,
		Fidelity:    explain.FidelityOf(sc, g, ex.Nodes),
		Sparsity:    explain.Sparsity(g, ex.Nodes),
	}
	sc.Release()
	for _, idx := range ex.Nodes {
		out.Rules = append(out.Rules, g.Nodes[idx].Rule)
	}
	return out, sc.Stats(), nil
}

// Evaluate computes detection metrics over labelled graphs against the
// frozen model.
func (s *Snapshot) Evaluate(graphs []*graph.Graph) ml.Metrics {
	return gnn.EvaluateDetector(s.det, graphs)
}
