// Package explain implements the vulnerability explanation layer of §III-C:
// kernel SHAP over graph substructures (Eq. 5-6), the SHAP-guided Monte
// Carlo beam search of Algorithm 2, the SubgraphX and MCTS_GNN comparison
// methods of Fig. 8-9, and the fidelity/sparsity metrics used to score
// explanations quantitatively.
//
// Everything here asks one question of the detection model — the score of
// the subgraph induced on a node subset of one fixed graph — through the
// Scorer interface. A model that can answer it cheaply (gnn.Detector's
// scorer remembers every layer's rows between coalitions) implements Scorer
// directly; any other h(·) is adapted as a black box over masked copies of
// the graph, which is what the ScoreFunc entry points do.
package explain

import (
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// Scorer is the detection model h(·) restricted to one graph: Score returns
// the vulnerability probability of the subgraph induced on keep, with the
// nodes in keep's order (keep holds distinct node indices of the graph;
// masking a node removes it and its edges, the standard graph-explanation
// ablation). Score(nil) is the value of the empty coalition. keep is only
// valid during the call. A Scorer need not be safe for concurrent use: one
// search calls it from one goroutine.
type Scorer interface {
	Score(keep []int) float64
}

// ScoreFunc is the detection model h(·) as a black box: it maps an
// interaction graph to a vulnerability probability.
type ScoreFunc func(g *graph.Graph) float64

// blackBox adapts a ScoreFunc to Scorer by handing it masked copies of g.
type blackBox struct {
	h ScoreFunc
	g *graph.Graph
}

// Score masks g down to keep; the whole graph in its own order is g itself.
func (b blackBox) Score(keep []int) float64 {
	if len(keep) == b.g.N() && isIdentity(keep) {
		return b.h(b.g)
	}
	return b.h(maskGraph(b.g, keep))
}

func isIdentity(keep []int) bool {
	for i, v := range keep {
		if v != i {
			return false
		}
	}
	return true
}

// maskGraph returns the induced subgraph on the kept node indices.
func maskGraph(g *graph.Graph, keep []int) *graph.Graph {
	return g.InducedSubgraph(keep)
}

// evaluator holds what the SHAP, Shapley and fidelity estimators need of
// one graph — its scorer and node count — and the scratch they share, so a
// search's hundreds of reward evaluations reuse one set of buffers.
type evaluator struct {
	sc  Scorer
	all []int // 0..n-1: the whole graph in its own order

	inSub  []bool
	others []int // nodes outside the evaluated subgraph, ascending
	keep   []int // the coalition handed to the scorer
	mask   []bool
	x      mat.Dense // kernel-SHAP design matrix over xbuf
	xbuf   []float64
	ys, ws []float64
}

func newEvaluator(sc Scorer, n int) *evaluator {
	e := &evaluator{sc: sc, all: make([]int, n), inSub: make([]bool, n)}
	for i := range e.all {
		e.all[i] = i
	}
	return e
}

// split fills e.others with the nodes outside sub, ascending.
func (e *evaluator) split(sub []int) []int {
	for _, i := range sub {
		e.inSub[i] = true
	}
	e.others = e.others[:0]
	for i, in := range e.inSub {
		if !in {
			e.others = append(e.others, i)
		}
	}
	for _, i := range sub {
		e.inSub[i] = false
	}
	return e.others
}

// KernelSHAP approximates the SHAP value (Eq. 5) of treating the candidate
// subgraph as one player and the remaining nodes as singleton players. It
// samples K coalitions z′ of the other players, evaluates
// h(subgraph ∪ coalition), and solves the weighted linear regression of
// Eq. (6) whose first coefficient is the subgraph's SHAP value φ.
func KernelSHAP(h ScoreFunc, g *graph.Graph, sub []int, k int, seed int64) float64 {
	return newEvaluator(blackBox{h, g}, g.N()).kernelSHAP(sub, k, rng.New(seed))
}

// kernelSHAP draws all coalition sampling from the caller-owned r and
// nothing else, so concurrent calls with independent generators never race
// and repeat calls with equal-seeded generators are bit-identical.
func (e *evaluator) kernelSHAP(sub []int, k int, r *rng.RNG) float64 {
	others := e.split(sub)
	// Players: index 0 = the subgraph, 1..m = singleton other nodes.
	m := len(others) + 1
	if m == 1 {
		// No other players: φ is the full prediction minus the empty value.
		return e.sc.Score(e.all) - e.sc.Score(nil)
	}

	// One design row per coalition: intercept, then the z′ indicator vector.
	rows := 2 + max(k-2, 0)
	e.xbuf = grow(e.xbuf, rows*(m+1))
	clear(e.xbuf)
	e.x.Remake(rows, m+1, e.xbuf)
	e.ys, e.ws = grow(e.ys, rows), grow(e.ws, rows) // h(T_x⁻¹(z′)), Shapley kernel weights
	e.mask = grow(e.mask, m)
	mask := e.mask

	evalCoalition := func(i int) {
		keep := e.keep[:0]
		if mask[0] {
			keep = append(keep, sub...)
		}
		for j, node := range others {
			if mask[j+1] {
				keep = append(keep, node)
			}
		}
		e.keep = keep
		row := e.x.Row(i)
		row[0] = 1 // intercept
		size := 0
		for j, b := range mask {
			if b {
				size++
				row[j+1] = 1
			}
		}
		// Shapley kernel: C = (M−1) / (C(M,|z|)·|z|·(M−|z|)); the empty and
		// full coalitions get large finite weights (they pin the intercept
		// and total).
		if size == 0 || size == m {
			e.ws[i] = 1e6
		} else {
			e.ws[i] = float64(m-1) / (binom(m, size) * float64(size) * float64(m-size))
		}
		e.ys[i] = e.sc.Score(keep)
	}

	// Always include the empty and full coalitions, then K −2 random ones.
	clear(mask)
	evalCoalition(0)
	for i := range mask {
		mask[i] = true
	}
	evalCoalition(1)
	for s := 2; s < rows; s++ {
		clear(mask)
		// Sample coalition sizes ~ the Shapley kernel by drawing a size
		// uniformly then members uniformly; the regression weights correct
		// the residual bias.
		size := 1 + r.Intn(m-1)
		for _, idx := range r.SampleWithoutReplacement(m, size) {
			mask[idx] = true
		}
		evalCoalition(s)
	}

	coef, err := mat.WeightedLeastSquares(&e.x, e.ys, e.ws, 1e-6)
	if err != nil {
		return 0
	}
	// coef[1] is the subgraph player's φ.
	return coef[1]
}

// reward is the method's value of the candidate subgraph sub, K samples.
func (e *evaluator) reward(method Method, sub []int, k int, r *rng.RNG) float64 {
	switch method {
	case MethodSubgraphX:
		return e.shapleyValue(sub, k, r)
	case MethodMCTSGNN:
		return e.sc.Score(sub)
	default:
		return e.kernelSHAP(sub, k, r)
	}
}

// grow returns buf resliced to n elements, reallocating only when its
// capacity is short. The contents are unspecified.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// binom computes C(n, k) as float64 (n ≤ ~60 in interaction graphs).
func binom(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}

// shapleyValue is the sampling estimator SubgraphX uses: the average
// marginal contribution of the subgraph over random permutations of the
// other players, assuming player independence (the assumption the paper
// criticises). It draws from the caller-owned r only (see kernelSHAP for the
// concurrency contract).
func (e *evaluator) shapleyValue(sub []int, samples int, r *rng.RNG) float64 {
	others := e.split(sub)
	if len(others) == 0 {
		return e.sc.Score(e.all) - e.sc.Score(nil)
	}
	var total float64
	for s := 0; s < samples; s++ {
		perm := r.Perm(len(others))
		cut := r.Intn(len(others) + 1)
		keep := e.keep[:0]
		for _, idx := range perm[:cut] {
			keep = append(keep, others[idx])
		}
		without := e.sc.Score(keep)
		keep = append(keep, sub...)
		e.keep = keep
		total += e.sc.Score(keep) - without
	}
	return total / float64(samples)
}

// Fidelity is the drop in prediction when the explanation subgraph is
// removed from the graph: h(G) − h(G \ G_sub). Higher means the subgraph
// really carries the prediction (Fig. 9, following Pope et al.).
func Fidelity(h ScoreFunc, g *graph.Graph, sub []int) float64 {
	return FidelityOf(blackBox{h, g}, g, sub)
}

// FidelityOf is Fidelity of a model that scores g's node subsets itself.
func FidelityOf(sc Scorer, g *graph.Graph, sub []int) float64 {
	e := newEvaluator(sc, g.N())
	return sc.Score(e.all) - sc.Score(e.split(sub))
}

// Sparsity is the fraction of the graph NOT selected by the explanation:
// 1 − |G_sub|/|G| (Fig. 9). Concise explanations score high.
func Sparsity(g *graph.Graph, sub []int) float64 {
	if g.N() == 0 {
		return 0
	}
	return 1 - float64(len(sub))/float64(g.N())
}
