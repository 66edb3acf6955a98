package explain

// The explanation layer as it stood on commit a126760, kept verbatim as the
// oracle: one black-box h(·) call on a freshly induced subgraph per score,
// string subset keys, maps and edge scans for connectivity. Only the names
// changed (ref…), so they can stand beside the code they check.
// TestExplainMatchesReference and FuzzScorer hold the package's single
// search, and gnn.Detector's scorer under it, to these bit for bit.

import (
	"fmt"
	"sort"

	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/rng"
)

// refRewardFunc scores a candidate subgraph of g under model h; the three
// explanation methods differ only in this function. The reward draws all
// randomness from the supplied generator — never from package-level or
// struct-shared state — so two searches with the same config are
// bit-identical even when they run concurrently.
type refRewardFunc func(h ScoreFunc, g *graph.Graph, sub []int, r *rng.RNG) float64

// refSubKey canonically identifies a node subset.
func refSubKey(sub []int) string {
	s := append([]int(nil), sub...)
	sort.Ints(s)
	return fmt.Sprint(s)
}

// refChildren enumerates the connected subgraphs reachable by pruning one node
// from sub (keeping the remainder weakly connected in g).
func refChildren(g *graph.Graph, sub []int) [][]int {
	if len(sub) <= 1 {
		return nil
	}
	var out [][]int
	for drop := range sub {
		next := make([]int, 0, len(sub)-1)
		for i, v := range sub {
			if i != drop {
				next = append(next, v)
			}
		}
		if connectedSubset(g, next) {
			out = append(out, next)
		}
	}
	return out
}

// connectedSubset reports weak connectivity of the induced subgraph.
func connectedSubset(g *graph.Graph, sub []int) bool {
	if len(sub) <= 1 {
		return true
	}
	in := map[int]bool{}
	for _, v := range sub {
		in[v] = true
	}
	visited := map[int]bool{sub[0]: true}
	stack := []int{sub[0]}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range g.Edges {
			var next int
			switch {
			case e.From == cur && in[e.To]:
				next = e.To
			case e.To == cur && in[e.From]:
				next = e.From
			default:
				continue
			}
			if !visited[next] {
				visited[next] = true
				stack = append(stack, next)
			}
		}
	}
	return len(visited) == len(sub)
}

// refRootComponent picks the largest weakly connected component as the search
// root N₀.
func refRootComponent(g *graph.Graph) []int {
	seen := make([]bool, g.N())
	var best []int
	for i := 0; i < g.N(); i++ {
		if seen[i] {
			continue
		}
		comp := g.ComponentOf(i)
		for _, v := range comp {
			seen[v] = true
		}
		if len(comp) > len(best) {
			best = comp
		}
	}
	return best
}

// refSearch runs the Monte Carlo beam search of Algorithm 2 with the supplied
// reward. Each playout descends from the root, keeping the Beam best
// refChildren per level and choosing the next node by Q(N,a) + λ·R(N,a)
// (Eq. 7); subgraphs reaching N_min nodes are collected and the best-scoring
// one is returned.
func refSearch(h ScoreFunc, g *graph.Graph, cfg SearchConfig, reward refRewardFunc) Explanation {
	root := refRootComponent(g)
	if len(root) == 0 {
		return Explanation{}
	}
	if len(root) <= cfg.MinNodes {
		return Explanation{Nodes: root,
			Score: reward(h, g, root, rng.New(cfg.Seed))}
	}
	r := rng.New(cfg.Seed)

	// Q statistics across playouts.
	visits := map[string]int{}
	totalReward := map[string]float64{}
	rewardCache := map[string]float64{}
	evalReward := func(sub []int) float64 {
		k := refSubKey(sub)
		if v, ok := rewardCache[k]; ok {
			return v
		}
		// Each cache miss gets its own generator at a deterministic
		// cache-ordinal offset, so the reward stream is a pure function of
		// the config regardless of evaluation interleaving.
		v := reward(h, g, sub, rng.New(cfg.Seed+int64(len(rewardCache))))
		rewardCache[k] = v
		return v
	}

	best := Explanation{Score: -1e18}
	consider := func(sub []int, score float64) {
		if score > best.Score {
			best = Explanation{Nodes: append([]int(nil), sub...), Score: score}
		}
	}

	for it := 0; it < cfg.Iterations; it++ {
		cur := append([]int(nil), root...)
		for len(cur) > cfg.MinNodes {
			cands := refChildren(g, cur)
			if len(cands) == 0 {
				break
			}
			// Score candidates; keep the beam.
			type scored struct {
				sub []int
				r   float64
			}
			var ss []scored
			for _, c := range cands {
				ss = append(ss, scored{c, evalReward(c)})
			}
			sort.Slice(ss, func(i, j int) bool { return ss[i].r > ss[j].r })
			beam := cfg.Beam
			if beam > len(ss) {
				beam = len(ss)
			}
			ss = ss[:beam]
			// Eq. (7): argmax Q + λR with a light random tie-break so
			// playouts diversify.
			bestIdx := 0
			bestVal := -1e18
			for i, cand := range ss {
				k := refSubKey(cand.sub)
				q := 0.0
				if visits[k] > 0 {
					q = totalReward[k] / float64(visits[k])
				}
				val := q + cfg.Lambda*cand.r + 1e-6*r.Float64()
				if val > bestVal {
					bestVal = val
					bestIdx = i
				}
			}
			chosen := ss[bestIdx]
			k := refSubKey(chosen.sub)
			visits[k]++
			totalReward[k] += chosen.r
			cur = chosen.sub
			consider(cur, chosen.r)
		}
		// Leaf reached (|S| ≤ N_min): record it (line 15, S_l ∪ S_i).
		consider(cur, evalReward(cur))
	}
	return best
}

// refFexIoTExplain runs Algorithm 2 with the kernel-SHAP reward — the paper's
// method.
func refFexIoTExplain(h ScoreFunc, g *graph.Graph, cfg SearchConfig) Explanation {
	return refSearch(h, g, cfg, func(h ScoreFunc, g *graph.Graph, sub []int, r *rng.RNG) float64 {
		return refKernelSHAPRNG(h, g, sub, cfg.KernelSamples, r)
	})
}

// refSubgraphX runs the same search with the Shapley-value reward under the
// player-independence assumption (Yuan et al. 2021).
func refSubgraphX(h ScoreFunc, g *graph.Graph, cfg SearchConfig) Explanation {
	return refSearch(h, g, cfg, func(h ScoreFunc, g *graph.Graph, sub []int, r *rng.RNG) float64 {
		return refShapleyValueRNG(h, g, sub, cfg.KernelSamples, r)
	})
}

// refMCTSGNN runs the search rewarding raw prediction scores of the subgraph —
// the MCTS_GNN baseline, which the paper shows cannot capture connections
// among graph structures.
func refMCTSGNN(h ScoreFunc, g *graph.Graph, cfg SearchConfig) Explanation {
	return refSearch(h, g, cfg, func(h ScoreFunc, g *graph.Graph, sub []int, _ *rng.RNG) float64 {
		return h(maskGraph(g, sub))
	})
}

// refKernelSHAPRNG is KernelSHAP with an explicit caller-owned generator: all
// coalition sampling draws from r and nothing else, so concurrent calls
// with independent generators never race and repeat calls with equal-seeded
// generators are bit-identical.
func refKernelSHAPRNG(h ScoreFunc, g *graph.Graph, sub []int, k int, r *rng.RNG) float64 {
	n := g.N()
	inSub := make([]bool, n)
	for _, i := range sub {
		inSub[i] = true
	}
	var others []int
	for i := 0; i < n; i++ {
		if !inSub[i] {
			others = append(others, i)
		}
	}
	// Players: index 0 = the subgraph, 1..m = singleton other nodes.
	m := len(others) + 1
	if m == 1 {
		// No other players: φ is the full prediction minus the empty value.
		return h(g) - h(maskGraph(g, nil))
	}

	var rows [][]float64 // z′ indicator vectors (length m)
	var ys []float64     // h(T_x⁻¹(z′))
	var ws []float64     // Shapley kernel weights

	evalCoalition := func(mask []bool) {
		var keep []int
		if mask[0] {
			keep = append(keep, sub...)
		}
		for j, node := range others {
			if mask[j+1] {
				keep = append(keep, node)
			}
		}
		size := 0
		for _, b := range mask {
			if b {
				size++
			}
		}
		// Shapley kernel: C = (M−1) / (C(M,|z|)·|z|·(M−|z|)); the empty and
		// full coalitions get large finite weights (they pin the intercept
		// and total).
		var w float64
		if size == 0 || size == m {
			w = 1e6
		} else {
			w = float64(m-1) / (binom(m, size) * float64(size) * float64(m-size))
		}
		row := make([]float64, m+1)
		row[0] = 1 // intercept
		for j, b := range mask {
			if b {
				row[j+1] = 1
			}
		}
		rows = append(rows, row)
		ys = append(ys, h(maskGraph(g, keep)))
		ws = append(ws, w)
	}

	// Always include the empty and full coalitions, then K −2 random ones.
	empty := make([]bool, m)
	full := make([]bool, m)
	for i := range full {
		full[i] = true
	}
	evalCoalition(empty)
	evalCoalition(full)
	for s := 0; s < k-2; s++ {
		mask := make([]bool, m)
		// Sample coalition sizes ~ the Shapley kernel by drawing a size
		// uniformly then members uniformly; the regression weights correct
		// the residual bias.
		size := 1 + r.Intn(m-1)
		for _, idx := range r.SampleWithoutReplacement(m, size) {
			mask[idx] = true
		}
		evalCoalition(mask)
	}

	x := mat.NewDense(len(rows), m+1)
	for i, row := range rows {
		x.SetRow(i, row)
	}
	coef, err := mat.WeightedLeastSquares(x, ys, ws, 1e-6)
	if err != nil {
		return 0
	}
	// coef[1] is the subgraph player's φ.
	return coef[1]
}

// refShapleyValueRNG is the Shapley estimator with an explicit caller-owned
// generator (see refKernelSHAPRNG for the concurrency contract).
func refShapleyValueRNG(h ScoreFunc, g *graph.Graph, sub []int, samples int, r *rng.RNG) float64 {
	n := g.N()
	inSub := make([]bool, n)
	for _, i := range sub {
		inSub[i] = true
	}
	var others []int
	for i := 0; i < n; i++ {
		if !inSub[i] {
			others = append(others, i)
		}
	}
	if len(others) == 0 {
		return h(g) - h(maskGraph(g, nil))
	}
	var total float64
	for s := 0; s < samples; s++ {
		perm := r.Perm(len(others))
		cut := r.Intn(len(others) + 1)
		var keep []int
		for _, idx := range perm[:cut] {
			keep = append(keep, others[idx])
		}
		without := h(maskGraph(g, keep))
		with := h(maskGraph(g, append(append([]int(nil), keep...), sub...)))
		total += with - without
	}
	return total / float64(samples)
}

// refFidelity is the drop in prediction when the explanation subgraph is
// removed from the graph: h(G) − h(G \ G_sub). Higher means the subgraph
// really carries the prediction (Fig. 9, following Pope et al.).
func refFidelity(h ScoreFunc, g *graph.Graph, sub []int) float64 {
	inSub := make([]bool, g.N())
	for _, i := range sub {
		inSub[i] = true
	}
	var rest []int
	for i := 0; i < g.N(); i++ {
		if !inSub[i] {
			rest = append(rest, i)
		}
	}
	return h(g) - h(maskGraph(g, rest))
}
