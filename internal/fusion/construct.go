// Package fusion implements the cross-modality data fusion of §III-A: the
// correlation features between rule pairs (DTW element similarity, lexical
// relation one-hots, Eq. (1) pair embeddings), offline interaction-graph
// construction by chaining action-trigger pairs, and the fusion of event
// logs with app descriptions into online interaction graphs.
package fusion

import (
	"fmt"
	"strconv"
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
	// InjectPlatforms restricts the platforms of injected rules (nil = the
	// three app platforms); homogeneous datasets set a single platform.
	InjectPlatforms []rules.Platform

	// mu guards the builder's RNG stream, graph counter, pool index and
	// Offline's scratch, which the serving engine reaches from concurrent
	// HTTP handlers. Offline holds it throughout (it draws from the RNG);
	// BuildOnline only to draw a graph ID.
	mu      sync.Mutex
	r       *rng.RNG
	nextID  int
	indexed []*rules.Rule
	index   *PoolIndex
	scratch offlineScratch

	// Rule text becomes a node feature through three layers, each a pure
	// function of its key, so none can change a verdict, only the work to
	// reach it: the Encoder's token tables (raw token → lemma and vectors),
	// the signature table below (device instance → HashVector of its key),
	// and on top the node-feature cache: a rule's whole feature under a
	// seeded FNV-64 hash of its content (description, platform, trigger,
	// actions — NOT its ID), so re-fusing a streaming session's window
	// after every event batch copies the features of unchanged rules
	// instead of summing their word vectors again. The lower two make a
	// miss cheap; the cache makes a re-audited rule a copy. featMu guards
	// the cache and the signature table, and is its own mutex because
	// NodeFeature runs both under mu (Offline) and outside it (BuildOnline).
	featMu     sync.Mutex
	featSeed   uint64
	featCache  map[uint64]featEntry
	sigs       map[sigKey][]float64
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

// maxSigEntries bounds the signature table — one entry per distinct device
// instance, environmental push or anomalous instance, a few hundred in a
// deployment. A full table stops growing: further keys are hashed per use.
const maxSigEntries = 8192

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
	h := fnv64a(fnvOffset64)
	h.u64(b.featSeed)
	h.u64(uint64(r.Platform))
	h.str(r.Description)
	h.str(r.Trigger.Device)
	h.str(r.Trigger.Room)
	h.u64(uint64(r.Trigger.Channel))
	h.str(r.Trigger.State)
	h.u64(uint64(len(r.Actions)))
	for _, a := range r.Actions {
		h.str(a.Device)
		h.str(a.Room)
		h.str(a.Verb)
		h.u64(uint64(a.Channel))
		h.str(a.State)
		if a.Sensitive {
			h.u64(1)
		} else {
			h.u64(0)
		}
		h.u64(uint64(len(a.Env)))
		for _, d := range a.Env {
			h.u64(uint64(d.Channel))
			h.u64(uint64(int64(d.Sign)))
		}
	}
	return uint64(h)
}

// fnv64a is hash/fnv's 64-bit FNV-1a as a value, so hashing a rule
// allocates neither a hasher nor a byte copy of each string.
type fnv64a uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// u64 mixes in v, low byte first.
func (h *fnv64a) u64(v uint64) {
	x := *h
	for i := 0; i < 8; i++ {
		x = (x ^ fnv64a(byte(v>>(8*i)))) * fnvPrime64
	}
	*h = x
}

// str mixes in s's length, then its bytes.
func (h *fnv64a) str(s string) {
	h.u64(uint64(len(s)))
	x := *h
	for i := 0; i < len(s); i++ {
		x = (x ^ fnv64a(s[i])) * fnvPrime64
	}
	*h = x
}

// indexFor returns the builder's PoolIndex over pool, re-indexing — in the
// storage of the last pool's index — only when the pool changes.
func (b *Builder) indexFor(pool []*rules.Rule) *PoolIndex {
	if b.index != nil && len(b.indexed) == len(pool) &&
		(len(pool) == 0 || &b.indexed[0] == &pool[0]) {
		return b.index
	}
	b.indexed = pool
	if b.index == nil {
		b.index = NewPoolIndex(pool)
	} else {
		b.index.reset(pool)
	}
	return b.index
}

// NewBuilder creates a graph builder with ground-truth edges.
func NewBuilder(seed int64, enc *embed.Encoder) *Builder {
	return &Builder{
		Encoder:   enc,
		Oracle:    rules.RuleCanTrigger,
		r:         rng.New(seed),
		featSeed:  uint64(seed)*0x9e3779b97f4a7c15 + 0xbf58476d1ce4e5b9,
		featCache: map[uint64]featEntry{},
		sigs:      map[sigKey][]float64{},
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
// a hit skips the word-vector and signature sums entirely and returns a
// fresh copy bit-identical to a recomputation; a miss sums interned vectors
// — the Encoder's per token, the signature table's per instance — straight
// into the slice it returns.
func (b *Builder) NodeFeature(r *rules.Rule) ([]float64, graph.FeatureSpace) {
	key := b.ruleContentHash(r)
	b.featMu.Lock()
	e, ok := b.featCache[key]
	b.featMu.Unlock()
	if ok {
		b.featHits.Add(1)
		return append([]float64(nil), e.feat...), e.space
	}
	b.featMisses.Add(1)

	dim, space := b.Encoder.WordDim(), graph.WordSpace
	if r.Platform.VoicePlatform() {
		dim, space = b.Encoder.SentenceDim(), graph.SentenceSpace
	}
	feat := make([]float64, dim+2*SigDim)
	if space == graph.SentenceSpace {
		copy(feat, b.Encoder.Sentence(r.Description))
	} else {
		b.Encoder.RuleEmbeddingInto(feat[:dim], r.Description)
	}
	b.addActionSignature(feat[dim:dim+SigDim], r)
	b.addTriggerSignature(feat[dim+SigDim:], r)

	cached := append([]float64(nil), feat...)
	b.featMu.Lock()
	if len(b.featCache) >= maxFeatCacheEntries {
		clear(b.featCache)
	}
	b.featCache[key] = featEntry{feat: cached, space: space}
	b.featMu.Unlock()
	return feat, space
}

// sigKey names one signature vector: a device instance at a pole-free
// state (sigState), a device instance whose state is one of two opposite
// poles (sigPole, state left empty so both poles share the vector and
// cancel), a room's environmental channel (sigEnv) or an anomalous
// instance of an online graph (sigAnomaly).
type sigKey struct {
	room, dev string
	ch        rules.Channel
	state     string
	kind      sigKind
}

type sigKind uint8

const (
	sigPole sigKind = iota
	sigState
	sigEnv
	sigAnomaly
)

// String is the key HashVector is given.
func (k sigKey) String() string {
	switch k.kind {
	case sigPole:
		return fmt.Sprintf("inst:%s|%s|%d", k.room, k.dev, k.ch)
	case sigState:
		return fmt.Sprintf("inst:%s|%s|%d|%s", k.room, k.dev, k.ch, k.state)
	case sigEnv:
		return fmt.Sprintf("env:%s|%d", k.room, k.ch)
	default:
		return "anomaly:" + k.room + "|" + k.dev
	}
}

// maxSigKeyLen is the most bytes of request text a stored signature key may
// hold on to.
const maxSigKeyLen = 128

// sigVec returns the unit vector of k — embed.HashVector of its string —
// formatting and hashing only the first time a key is seen while the table
// has room for it.
func (b *Builder) sigVec(k sigKey) []float64 {
	b.featMu.Lock()
	defer b.featMu.Unlock()
	v, ok := b.sigs[k]
	if !ok {
		v = embed.HashVector(k.String(), SigDim)
		if len(b.sigs) < maxSigEntries && len(k.room)+len(k.dev)+len(k.state) <= maxSigKeyLen {
			b.sigs[k] = v
		}
	}
	return v
}

// instanceKey maps a device state to its signature key and cancellation
// coefficient: opposite poles get ±1 on the same instance key, sign-free
// states get +1 on a state-qualified key.
func instanceKey(room, dev string, ch rules.Channel, state string) (sigKey, float64) {
	if s := rules.StateSign(state); s != 0 {
		return sigKey{room: room, dev: dev, ch: ch, kind: sigPole}, float64(s)
	}
	return sigKey{room: room, dev: dev, ch: ch, state: state, kind: sigState}, 1
}

// addActionSignature adds to sig the signed instance vectors of the rule's
// actions and environmental pushes.
func (b *Builder) addActionSignature(sig []float64, r *rules.Rule) {
	for _, a := range r.Actions {
		key, coef := instanceKey(a.Room, a.Device, a.Channel, a.State)
		axpy(sig, b.sigVec(key), coef)
		for _, d := range a.Env {
			axpy(sig, b.sigVec(sigKey{room: a.Room, ch: d.Channel, kind: sigEnv}),
				0.5*float64(d.Sign))
		}
	}
}

// addTriggerSignature adds to sig the watched instance with the trigger
// pole.
func (b *Builder) addTriggerSignature(sig []float64, r *rules.Rule) {
	t := r.Trigger
	key, coef := instanceKey(t.Room, t.Device, t.Channel, t.State)
	axpy(sig, b.sigVec(key), coef)
}

func axpy(dst, src []float64, s float64) {
	for i := range dst {
		dst[i] += s * src[i]
	}
}

// offlineScratch is what one Offline call gathers before it builds the
// graph, kept between calls so that sampling allocates nothing.
type offlineScratch struct {
	chosen  []bool        // per pool number: already a member
	members []*rules.Rule // the graph's nodes, in order
	numbers []int32       // the pool numbers of the members drawn from the pool
	near    []int32       // an anchor's partners
	pending []pendingEdge
}

// pendingEdge is an oracle edge between two members, by member position.
type pendingEdge struct {
	from, to int
	kind     rules.MatchKind
}

// add makes the pool rule numbered n a member unless it is one.
func (sc *offlineScratch) add(pool []*rules.Rule, n int32) {
	if !sc.chosen[n] {
		sc.chosen[n] = true
		sc.members = append(sc.members, pool[n])
		sc.numbers = append(sc.numbers, n)
	}
}

// connect records the oracle edges between members x and y (either or both
// directions may hold).
func (b *Builder) connect(x, y int) {
	sc := &b.scratch
	if k := b.Oracle(sc.members[x], sc.members[y]); k != rules.NoMatch {
		sc.pending = append(sc.pending, pendingEdge{x, y, k})
	}
	if k := b.Oracle(sc.members[y], sc.members[x]); k != rules.NoMatch {
		sc.pending = append(sc.pending, pendingEdge{y, x, k})
	}
}

// injectProb is the probability that an offline graph receives one crafted
// vulnerability pattern on top of organic interactions, ensuring all six
// types appear in the corpus.
const injectProb = 0.18

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
	g := &graph.Graph{ID: "g" + strconv.Itoa(b.nextID)}

	ix := b.indexFor(pool)
	sc := &b.scratch
	if cap(sc.chosen) < len(pool) {
		sc.chosen = make([]bool, len(pool))
	}
	sc.chosen = sc.chosen[:len(pool)]
	clear(sc.chosen)
	sc.members, sc.numbers, sc.pending = sc.members[:0], sc.numbers[:0], sc.pending[:0]
	// seed starts a component at a uniformly drawn pool position.
	seed := func() { sc.add(pool, ix.numberOf(pool[b.r.Intn(len(pool))])) }
	seed()

	// Grow path-like chains: extend from the most recent node most of the
	// time, occasionally branch from an older node, and start a fresh
	// component when the chain runs dry. Only the chained pairs become
	// edges — the paper chains sampled "trigger-action"/"action-trigger"
	// pairs rather than materialising every latent correlation — which
	// yields the sparse, sometimes multi-component graphs of Fig. 8.
	attempts := 0
	for len(sc.members) < size && attempts < size*25 {
		attempts++
		anchor := len(sc.members) - 1
		if !b.r.Bool(0.85) {
			anchor = b.r.Intn(len(sc.members))
		}
		sc.near = ix.neighbors(sc.near[:0], sc.members[anchor], sc.numbers[anchor])
		fresh := sc.near[:0]
		for _, n := range sc.near {
			if !sc.chosen[n] {
				fresh = append(fresh, n)
			}
		}
		if len(fresh) == 0 {
			// Chain ran dry: seed a new component.
			seed()
			continue
		}
		sc.add(pool, rng.Pick(b.r, fresh))
		cand := len(sc.members) - 1
		b.connect(anchor, cand)
		// Occasionally close a secondary correlation to an older member,
		// letting forks and cycles arise organically.
		if len(sc.members) > 2 && b.r.Bool(0.12) {
			other := b.r.Intn(len(sc.members))
			if other != cand && other != anchor {
				b.connect(other, cand)
			}
		}
	}

	// Optionally graft a crafted vulnerability pattern; pattern rules are
	// fully wired among themselves and to the member whose action roots
	// them.
	if b.r.Bool(injectProb) {
		first := len(sc.members)
		sc.members = append(sc.members, b.injectPattern(sc.members)...)
		for pr := first; pr < len(sc.members); pr++ {
			for other := range sc.members {
				if other != pr {
					b.connect(other, pr)
				}
			}
		}
	}

	g.Nodes = make([]graph.Node, 0, len(sc.members))
	for _, r := range sc.members {
		feat, space := b.NodeFeature(r)
		g.AddNode(graph.Node{Rule: r, Feature: feat, Space: space})
	}
	if len(sc.pending) > 0 {
		g.Edges = make([]graph.Edge, 0, len(sc.pending))
	}
	for _, pe := range sc.pending {
		g.AddEdge(pe.from, pe.to, pe.kind)
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
