// Package fusion implements the cross-modality data fusion of §III-A: the
// correlation features between rule pairs (DTW element similarity, lexical
// relation one-hots, Eq. (1) pair embeddings), offline interaction-graph
// construction by chaining action-trigger pairs, and the fusion of event
// logs with app descriptions into online interaction graphs.
package fusion

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"fexiot/internal/embed"
	"fexiot/internal/graph"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
	"fexiot/internal/vuln"
)

// EdgeOracle decides whether rule a's action triggers rule b's condition.
// The dataset generator uses the ground-truth semantics
// (rules.RuleCanTrigger); the deployed pipeline substitutes a trained
// correlation classifier (§III-A3). An oracle must be safe for concurrent
// calls and give the same answer for the same pair every time: BuildOnline
// consults it outside the builder lock.
type EdgeOracle func(a, b *rules.Rule) rules.MatchKind

// Builder constructs interaction graphs from rule pools.
type Builder struct {
	Encoder *embed.Encoder
	Oracle  EdgeOracle
	// InjectProb is the probability that a generated graph receives one
	// crafted vulnerability pattern on top of organic interactions,
	// ensuring all six types appear in the corpus.
	InjectProb float64
	// InjectPlatforms restricts the platforms of injected rules (nil = the
	// three app platforms); homogeneous datasets set a single platform.
	InjectPlatforms []rules.Platform

	// mu guards the builder's RNG stream, graph counter and pool index,
	// which the serving engine reaches from concurrent HTTP handlers.
	// Offline holds it throughout (it draws from the RNG); BuildOnline only
	// to draw a graph ID.
	mu      sync.Mutex
	r       *rng.RNG
	nextID  int
	indexed []*rules.Rule
	index   *PoolIndex

	// Node-feature cache: NodeFeature is a pure function of the rule's
	// content (description, platform, trigger, actions — NOT its ID), so
	// re-fusing a streaming session's window after every event batch must
	// never re-tokenise and re-embed unchanged rule text. Keyed by a
	// seeded FNV-64 content hash; guarded by its own mutex because
	// NodeFeature runs both under mu (Offline) and outside it (BuildOnline).
	featMu     sync.Mutex
	featSeed   uint64
	featCache  map[uint64]featEntry
	featHits   atomic.Int64
	featMisses atomic.Int64
}

type featEntry struct {
	feat  []float64
	space graph.FeatureSpace
}

// maxFeatCacheEntries bounds the feature cache; a full cache is dropped
// wholesale (epoch eviction), which is deterministic and keeps the common
// steady-state — a bounded set of deployed rules per serving process —
// permanently warm.
const maxFeatCacheEntries = 8192

// FeatureCacheStats reports node-feature cache effectiveness.
type FeatureCacheStats struct {
	Hits   int64
	Misses int64
}

// FeatureCacheStats returns cumulative cache hits and misses.
func (b *Builder) FeatureCacheStats() FeatureCacheStats {
	return FeatureCacheStats{Hits: b.featHits.Load(), Misses: b.featMisses.Load()}
}

// ruleContentHash hashes everything NodeFeature reads from a rule, seeded
// per builder. The rule ID is deliberately excluded: two rules with
// identical text and structure embed identically and share a cache slot.
func (b *Builder) ruleContentHash(r *rules.Rule) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	putU64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	str := func(s string) {
		putU64(uint64(len(s)))
		h.Write([]byte(s))
	}
	cond := func(c rules.Condition) {
		str(c.Device)
		str(c.Room)
		putU64(uint64(c.Channel))
		str(c.State)
	}
	putU64(b.featSeed)
	putU64(uint64(r.Platform))
	str(r.Description)
	cond(r.Trigger)
	putU64(uint64(len(r.Actions)))
	for _, a := range r.Actions {
		str(a.Device)
		str(a.Room)
		str(a.Verb)
		putU64(uint64(a.Channel))
		str(a.State)
		if a.Sensitive {
			putU64(1)
		} else {
			putU64(0)
		}
		putU64(uint64(len(a.Env)))
		for _, d := range a.Env {
			putU64(uint64(d.Channel))
			putU64(uint64(int64(d.Sign)))
		}
	}
	return h.Sum64()
}

// indexFor returns a PoolIndex for pool, rebuilding only when the pool
// changes.
func (b *Builder) indexFor(pool []*rules.Rule) *PoolIndex {
	if b.index != nil && len(b.indexed) == len(pool) &&
		(len(pool) == 0 || &b.indexed[0] == &pool[0]) {
		return b.index
	}
	b.indexed = pool
	b.index = NewPoolIndex(pool)
	return b.index
}

// NewBuilder creates a graph builder with ground-truth edges.
func NewBuilder(seed int64, enc *embed.Encoder) *Builder {
	return &Builder{
		Encoder:    enc,
		Oracle:     rules.RuleCanTrigger,
		InjectProb: 0.18,
		r:          rng.New(seed),
		featSeed:   uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9,
		featCache:  map[uint64]featEntry{},
	}
}

// SigDim is the width of each instance-signature block appended to node
// features (one block for actions + environmental pushes, one for the
// trigger).
const SigDim = 16

// WordFeatureDim returns the node feature width of word-space nodes for an
// encoder (description embedding + two signature blocks).
func WordFeatureDim(enc *embed.Encoder) int { return enc.WordDim() + 2*SigDim }

// SentenceFeatureDim returns the node feature width of sentence-space nodes.
func SentenceFeatureDim(enc *embed.Encoder) int { return enc.SentenceDim() + 2*SigDim }

// NodeFeature encodes a rule into its node feature vector. The semantic
// block comes from the platform-appropriate encoder (sentence encoder for
// voice platforms — the paper's 512-d USE — and word embeddings for app
// platforms — the paper's 300-d spaCy vectors). Two signed instance-
// signature blocks encode which device instances the rule commands and
// watches: a conflicting pair's action signatures cancel under the GNN's
// sum aggregation while a duplicate pair's double, giving the network a
// linear-algebraic handle on the vulnerability patterns.
// The result is cached under a seeded content hash (see ruleContentHash):
// a hit skips tokenisation, word-embedding lookups and the signature sums
// entirely, and returns a fresh copy bit-identical to a recomputation —
// the cache can never change a verdict, only the work to reach it.
func (b *Builder) NodeFeature(r *rules.Rule) ([]float64, graph.FeatureSpace) {
	key := b.ruleContentHash(r)
	b.featMu.Lock()
	if e, ok := b.featCache[key]; ok {
		b.featMu.Unlock()
		b.featHits.Add(1)
		return append([]float64(nil), e.feat...), e.space
	}
	b.featMu.Unlock()
	b.featMisses.Add(1)

	var base []float64
	space := graph.WordSpace
	if r.Platform.VoicePlatform() {
		base = b.Encoder.Sentence(r.Description)
		space = graph.SentenceSpace
	} else {
		base = b.Encoder.RuleEmbedding(r.Description)
	}
	feat := make([]float64, 0, len(base)+2*SigDim)
	feat = append(feat, base...)
	feat = append(feat, actionSignature(r)...)
	feat = append(feat, triggerSignature(r)...)

	b.featMu.Lock()
	if b.featCache == nil {
		b.featCache = map[uint64]featEntry{}
	}
	if len(b.featCache) >= maxFeatCacheEntries {
		clear(b.featCache)
	}
	b.featCache[key] = featEntry{feat: append([]float64(nil), feat...), space: space}
	b.featMu.Unlock()
	return feat, space
}

// instanceKey maps a device state to its signature key and cancellation
// coefficient: opposite poles get ±1 on the same instance key, sign-free
// states get +1 on a state-qualified key.
func instanceKey(room, dev string, ch rules.Channel, state string) (string, float64) {
	if s := rules.StateSign(state); s != 0 {
		return fmt.Sprintf("inst:%s|%s|%d", room, dev, ch), float64(s)
	}
	return fmt.Sprintf("inst:%s|%s|%d|%s", room, dev, ch, state), 1
}

// actionSignature sums signed instance vectors over the rule's actions and
// environmental pushes.
func actionSignature(r *rules.Rule) []float64 {
	sig := make([]float64, SigDim)
	for _, a := range r.Actions {
		key, coef := instanceKey(a.Room, a.Device, a.Channel, a.State)
		axpy(sig, embed.HashVector(key, SigDim), coef)
		for _, d := range a.Env {
			axpy(sig, embed.HashVector(fmt.Sprintf("env:%s|%d", a.Room, d.Channel), SigDim),
				0.5*float64(d.Sign))
		}
	}
	return sig
}

// triggerSignature encodes the watched instance with the trigger pole.
func triggerSignature(r *rules.Rule) []float64 {
	sig := make([]float64, SigDim)
	t := r.Trigger
	key, coef := instanceKey(t.Room, t.Device, t.Channel, t.State)
	axpy(sig, embed.HashVector(key, SigDim), coef)
	return sig
}

func axpy(dst, src []float64, s float64) {
	for i := range dst {
		dst[i] += s * src[i]
	}
}

// Offline chains rules from pool into an interaction graph with about
// `size` nodes (2–50), per §III-A3: random seed rule, grown by sampling
// action-trigger correlated partners, with all oracle edges added among the
// chosen rules. Labels are assigned by the ground-truth detectors.
func (b *Builder) Offline(pool []*rules.Rule, size int) *graph.Graph {
	if len(pool) == 0 {
		panic("fusion: empty rule pool")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if size < 2 {
		size = 2
	}
	if size > 50 {
		size = 50
	}
	b.nextID++
	g := &graph.Graph{ID: fmt.Sprintf("g%d", b.nextID)}

	ix := b.indexFor(pool)
	chosen := map[*rules.Rule]bool{}
	var members []*rules.Rule
	type pendingEdge struct {
		a, b *rules.Rule
	}
	var pending []pendingEdge
	addRule := func(r *rules.Rule) bool {
		if chosen[r] {
			return false
		}
		chosen[r] = true
		members = append(members, r)
		return true
	}
	// connect records the oracle edges between two chained rules (either or
	// both directions may hold).
	connect := func(x, y *rules.Rule) {
		if b.Oracle(x, y) != rules.NoMatch {
			pending = append(pending, pendingEdge{x, y})
		}
		if b.Oracle(y, x) != rules.NoMatch {
			pending = append(pending, pendingEdge{y, x})
		}
	}
	addRule(pool[b.r.Intn(len(pool))])

	// Grow path-like chains: extend from the most recent node most of the
	// time, occasionally branch from an older node, and start a fresh
	// component when the chain runs dry. Only the chained pairs become
	// edges — the paper chains sampled "trigger-action"/"action-trigger"
	// pairs rather than materialising every latent correlation — which
	// yields the sparse, sometimes multi-component graphs of Fig. 8.
	attempts := 0
	for len(members) < size && attempts < size*25 {
		attempts++
		var anchor *rules.Rule
		if b.r.Bool(0.85) {
			anchor = members[len(members)-1]
		} else {
			anchor = members[b.r.Intn(len(members))]
		}
		var fresh []*rules.Rule
		for _, c := range ix.Neighbors(anchor) {
			if !chosen[c] {
				fresh = append(fresh, c)
			}
		}
		if len(fresh) == 0 {
			// Chain ran dry: seed a new component.
			addRule(pool[b.r.Intn(len(pool))])
			continue
		}
		cand := rng.Pick(b.r, fresh)
		addRule(cand)
		connect(anchor, cand)
		// Occasionally close a secondary correlation to an older member,
		// letting forks and cycles arise organically.
		if len(members) > 2 && b.r.Bool(0.12) {
			other := members[b.r.Intn(len(members))]
			if other != cand && other != anchor {
				connect(other, cand)
			}
		}
	}

	// Optionally graft a crafted vulnerability pattern; pattern rules are
	// fully wired among themselves and to the member whose action roots
	// them.
	if b.r.Bool(b.InjectProb) {
		injected := b.injectPattern(members)
		wire := append(append([]*rules.Rule(nil), members...), injected...)
		for _, pr := range injected {
			for _, other := range wire {
				if other != pr {
					connect(other, pr)
				}
			}
		}
		members = append(members, injected...)
	}

	idx := make(map[*rules.Rule]int, len(members))
	for i, r := range members {
		feat, space := b.NodeFeature(r)
		g.AddNode(graph.Node{Rule: r, Feature: feat, Space: space})
		idx[r] = i
	}
	for _, pe := range pending {
		i, iok := idx[pe.a]
		j, jok := idx[pe.b]
		if iok && jok && i != j {
			g.AddEdge(i, j, b.Oracle(pe.a, pe.b))
		}
	}
	vuln.Label(g)
	return g
}

// OfflineSized draws a size in [2,50] (the paper's node-count range, with
// mass concentrated near the ~18-node average Table III reports) and builds
// a graph.
func (b *Builder) OfflineSized(pool []*rules.Rule) *graph.Graph {
	b.mu.Lock()
	size := 2 + b.r.Poisson(9) + b.r.Intn(7)
	b.mu.Unlock()
	if size > 50 {
		size = 50
	}
	return b.Offline(pool, size)
}

// MultiHomePool builds a pool of rules drawn from nHomes generated homes
// cycling through the archetypes; this is the stand-in for the crawled
// multi-platform corpora of §IV-A.
func MultiHomePool(seed int64, nHomes, rulesPerHome int, platform *rules.Platform) []*rules.Rule {
	archs := rules.Archetypes()
	var pool []*rules.Rule
	for h := 0; h < nHomes; h++ {
		gen := rules.NewGenerator(seed+int64(h)*7919, archs[h%len(archs)],
			fmt.Sprintf("h%d-", h))
		if platform != nil {
			pool = append(pool, gen.RuleSetOn(*platform, rulesPerHome)...)
		} else {
			pool = append(pool, gen.RuleSet(rulesPerHome)...)
		}
	}
	return pool
}
