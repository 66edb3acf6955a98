package explain

import (
	"context"
	"sort"

	"fexiot/internal/graph"
	"fexiot/internal/rng"
)

// Method names the reward Algorithm 2's search maximises; the three
// explanation methods of Fig. 8-9 differ only in it. A reward draws all its
// randomness from the generator the search hands it — never from
// package-level or shared state — so two searches with the same config are
// bit-identical even when they run concurrently.
type Method int

const (
	// MethodFexIoT rewards a subgraph with its kernel-SHAP value: the
	// paper's method.
	MethodFexIoT Method = iota
	// MethodSubgraphX rewards it with the sampled Shapley value under the
	// player-independence assumption (Yuan et al. 2021).
	MethodSubgraphX
	// MethodMCTSGNN rewards it with its raw prediction score — the MCTS_GNN
	// baseline, which the paper shows cannot capture connections among
	// graph structures.
	MethodMCTSGNN
)

// SearchConfig parameterises Algorithm 2.
type SearchConfig struct {
	Iterations    int     // I: MCBS playouts
	KernelSamples int     // K: kernel SHAP coalitions per evaluation
	MinNodes      int     // N_min: smallest admissible explanation
	Beam          int     // B_level: beam width per level
	Lambda        float64 // exploration/exploitation balance in Eq. (7)
	Seed          int64
}

// DefaultSearchConfig gives the settings used in the evaluation.
func DefaultSearchConfig(seed int64) SearchConfig {
	return SearchConfig{Iterations: 5, KernelSamples: 12, MinNodes: 4,
		Beam: 4, Lambda: 1.0, Seed: seed}
}

// Explanation is the output of a search: the selected subgraph (original
// node indices) and its risk score.
type Explanation struct {
	Nodes []int
	Score float64
}

// subsetKey canonically identifies a node subset: a bitset, in one word
// when the graph has at most 64 nodes and as the bitset's bytes otherwise.
type subsetKey struct {
	bits uint64
	wide string
}

// subsetStat is what the search knows of one visited subset: its reward
// (evaluated once) and the Q statistics across playouts.
type subsetStat struct {
	reward      float64
	visits      int
	totalReward float64
}

// scored is one candidate of a level.
type scored struct {
	sub  []int
	stat int // index into searcher.stats
	r    float64
}

// searcher is one run of Algorithm 2: the graph's adjacency lists (built
// once), the per-subset statistics and the buffers every level reuses.
type searcher struct {
	ctx    context.Context
	cfg    SearchConfig
	method Method
	eval   *evaluator
	adj    [][]int // undirected neighbour lists, in edge order

	index    map[subsetKey]int
	stats    []subsetStat
	rewardRN *rng.RNG // reseeded per reward evaluation
	keyBuf   []byte

	mark  []int // connectivity scratch: mark[v] == stamp ⇔ v is in the subset
	seen  []int // … == stamp ⇔ v was reached
	stamp int
	stack []int
	level [2][]int // candidate storage, alternating by depth
	ss    []scored
}

// adjacency builds the undirected neighbour lists of g. A node's list is in
// edge order and may repeat a neighbour; traversals skip what they have
// already reached, so they visit nodes in the order graph.Neighbors gives.
func adjacency(g *graph.Graph) [][]int {
	deg := make([]int, g.N())
	for _, e := range g.Edges {
		deg[e.From]++
		deg[e.To]++
	}
	flat := make([]int, 2*len(g.Edges))
	adj := make([][]int, g.N())
	for i, d := range deg {
		adj[i], flat = flat[:0:d], flat[d:]
	}
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	return adj
}

// rootComponent picks the largest weakly connected component (the first of
// equals, nodes in breadth-first discovery order) as the search root N₀.
func rootComponent(adj [][]int) []int {
	seen := make([]bool, len(adj))
	var best, comp []int
	for i := range adj {
		if seen[i] {
			continue
		}
		comp = append(comp[:0], i)
		seen[i] = true
		for head := 0; head < len(comp); head++ {
			for _, next := range adj[comp[head]] {
				if !seen[next] {
					seen[next] = true
					comp = append(comp, next)
				}
			}
		}
		if len(comp) > len(best) {
			best = append(best[:0], comp...)
		}
	}
	return best
}

func newSearcher(ctx context.Context, eval *evaluator, adj [][]int, cfg SearchConfig, method Method) *searcher {
	n := len(adj)
	s := &searcher{ctx: ctx, cfg: cfg, method: method, eval: eval,
		adj: adj, rewardRN: rng.New(cfg.Seed),
		index: map[subsetKey]int{}, mark: make([]int, n), seen: make([]int, n)}
	if n > 64 {
		s.keyBuf = make([]byte, (n+7)/8)
	}
	return s
}

func (s *searcher) key(sub []int) subsetKey {
	if len(s.adj) <= 64 {
		var k subsetKey
		for _, v := range sub {
			k.bits |= 1 << uint(v)
		}
		return k
	}
	clear(s.keyBuf)
	for _, v := range sub {
		s.keyBuf[v>>3] |= 1 << uint(v&7)
	}
	return subsetKey{wide: string(s.keyBuf)}
}

// connected reports weak connectivity of the subgraph induced on sub.
func (s *searcher) connected(sub []int) bool {
	if len(sub) <= 1 {
		return true
	}
	s.stamp++
	for _, v := range sub {
		s.mark[v] = s.stamp
	}
	s.seen[sub[0]] = s.stamp
	s.stack = append(s.stack[:0], sub[0])
	reached := 1
	for len(s.stack) > 0 {
		cur := s.stack[len(s.stack)-1]
		s.stack = s.stack[:len(s.stack)-1]
		for _, next := range s.adj[cur] {
			if s.mark[next] == s.stamp && s.seen[next] != s.stamp {
				s.seen[next] = s.stamp
				reached++
				s.stack = append(s.stack, next)
			}
		}
	}
	return reached == len(sub)
}

// children fills s.ss with the connected subgraphs reachable by pruning one
// node from sub (keeping the remainder weakly connected), in pruning order.
// Their node lists live in the depth's buffer, which the depth after next
// overwrites — by then the search has moved on from them.
func (s *searcher) children(sub []int, depth int) {
	s.ss = s.ss[:0]
	if len(sub) <= 1 {
		return
	}
	buf := grow(s.level[depth&1], len(sub)*(len(sub)-1))[:0]
	s.level[depth&1] = buf
	for drop := range sub {
		next := append(append(buf[len(buf):], sub[:drop]...), sub[drop+1:]...)
		if s.connected(next) {
			buf = buf[:len(buf)+len(next)]
			s.ss = append(s.ss, scored{sub: next})
		}
	}
}

// evalReward returns the index of sub's statistics, evaluating its reward
// on first sight. Each first evaluation gets its own generator state at a
// deterministic ordinal offset, so the reward stream is a pure function of
// the config regardless of evaluation interleaving. The context is checked
// here, once per reward evaluation: a cancelled search stops before its
// next batch of scores, not in the middle of one.
func (s *searcher) evalReward(sub []int) (int, error) {
	k := s.key(sub)
	if i, ok := s.index[k]; ok {
		return i, nil
	}
	if err := s.ctx.Err(); err != nil {
		return 0, err
	}
	s.rewardRN.Reseed(s.cfg.Seed + int64(len(s.stats)))
	s.index[k] = len(s.stats)
	s.stats = append(s.stats, subsetStat{
		reward: s.eval.reward(s.method, sub, s.cfg.KernelSamples, s.rewardRN)})
	return len(s.stats) - 1, nil
}

// Search runs the Monte Carlo beam search of Algorithm 2 over the node
// subsets of g, scored by sc, with the method's reward. Each playout
// descends from the root, keeping the Beam best children per level and
// choosing the next node by Q(N,a) + λ·R(N,a) (Eq. 7); subgraphs reaching
// N_min nodes are collected and the best-scoring one is returned. The only
// error is ctx's, returned as soon as the next reward evaluation would
// start.
func Search(ctx context.Context, sc Scorer, g *graph.Graph, cfg SearchConfig, method Method) (Explanation, error) {
	adj := adjacency(g)
	root := rootComponent(adj)
	if len(root) == 0 {
		return Explanation{}, nil
	}
	eval := newEvaluator(sc, len(adj))
	if len(root) <= cfg.MinNodes {
		// Nothing to prune: the root is the explanation.
		if err := ctx.Err(); err != nil {
			return Explanation{}, err
		}
		return Explanation{Nodes: root,
			Score: eval.reward(method, root, cfg.KernelSamples, rng.New(cfg.Seed))}, nil
	}
	s := newSearcher(ctx, eval, adj, cfg, method)
	r := rng.New(cfg.Seed) // tie-breaks

	best := Explanation{Score: -1e18}
	consider := func(sub []int, score float64) {
		if score > best.Score {
			best.Nodes, best.Score = append(best.Nodes[:0], sub...), score
		}
	}

	for it := 0; it < cfg.Iterations; it++ {
		cur := root
		for depth := 0; len(cur) > cfg.MinNodes; depth++ {
			s.children(cur, depth)
			ss := s.ss
			if len(ss) == 0 {
				break
			}
			// Score candidates; keep the beam.
			for i := range ss {
				stat, err := s.evalReward(ss[i].sub)
				if err != nil {
					return Explanation{}, err
				}
				ss[i].stat, ss[i].r = stat, s.stats[stat].reward
			}
			sort.Slice(ss, func(i, j int) bool { return ss[i].r > ss[j].r })
			if cfg.Beam < len(ss) {
				ss = ss[:cfg.Beam]
			}
			// Eq. (7): argmax Q + λR with a light random tie-break so
			// playouts diversify.
			bestIdx := 0
			bestVal := -1e18
			for i, cand := range ss {
				q := 0.0
				if st := s.stats[cand.stat]; st.visits > 0 {
					q = st.totalReward / float64(st.visits)
				}
				val := q + cfg.Lambda*cand.r + 1e-6*r.Float64()
				if val > bestVal {
					bestVal = val
					bestIdx = i
				}
			}
			chosen := ss[bestIdx]
			s.stats[chosen.stat].visits++
			s.stats[chosen.stat].totalReward += chosen.r
			cur = chosen.sub
			consider(cur, chosen.r)
		}
		// Leaf reached (|S| ≤ N_min): record it (line 15, S_l ∪ S_i).
		stat, err := s.evalReward(cur)
		if err != nil {
			return Explanation{}, err
		}
		consider(cur, s.stats[stat].reward)
	}
	return best, nil
}

// blackBoxSearch is Search for a model known only as h(·).
func blackBoxSearch(h ScoreFunc, g *graph.Graph, cfg SearchConfig, method Method) Explanation {
	// Background is never cancelled, which is Search's only error.
	ex, _ := Search(context.Background(), blackBox{h, g}, g, cfg, method)
	return ex
}

// FexIoTExplain runs Algorithm 2 with the kernel-SHAP reward — the paper's
// method — against a black-box model.
func FexIoTExplain(h ScoreFunc, g *graph.Graph, cfg SearchConfig) Explanation {
	return blackBoxSearch(h, g, cfg, MethodFexIoT)
}
