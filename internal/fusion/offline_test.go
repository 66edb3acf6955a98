package fusion

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sync"
	"testing"

	"fexiot/internal/embed"
	"fexiot/internal/graph"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
)

// benchHomes generates n homes of 8–40 rules cycling through every
// archetype — the shape of the benchmark's detect_http request pool, where
// each request brings its own rule slice and so its own pool index.
func benchHomes(n int) [][]*rules.Rule {
	archs := rules.Archetypes()
	homes := make([][]*rules.Rule, n)
	for i := range homes {
		// 17 is coprime to 33, so sizes and archetypes are decorrelated.
		size := 8 + (i*17)%33
		homes[i] = rules.NewGenerator(1000+int64(i), archs[i%len(archs)],
			fmt.Sprintf("b%d-", i)).RuleSet(size)
	}
	return homes
}

// hashGraph folds everything a sampled graph exposes into h: ID, member
// rule IDs in node order, feature spaces and bits, edges with kinds, label
// and tags.
func hashGraph(h interface{ Write([]byte) (int, error) }, g *graph.Graph) {
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	str := func(s string) {
		u64(uint64(len(s)))
		h.Write([]byte(s))
	}
	str(g.ID)
	u64(uint64(len(g.Nodes)))
	for _, n := range g.Nodes {
		str(n.Rule.ID)
		u64(uint64(n.Space))
		u64(uint64(len(n.Feature)))
		for _, v := range n.Feature {
			u64(math.Float64bits(v))
		}
	}
	u64(uint64(len(g.Edges)))
	for _, e := range g.Edges {
		u64(uint64(e.From))
		u64(uint64(e.To))
		u64(uint64(e.Kind))
	}
	if g.Label {
		u64(1)
	} else {
		u64(0)
	}
	u64(uint64(len(g.Tags)))
	for _, t := range g.Tags {
		str(t)
	}
}

// offlineGraphsPin is the SHA-256 of 200 consecutive graphs of one seeded
// builder, recorded at commit 71646be — before token and signature
// interning, the position-numbered pool index and the flat-buffer labeler
// existed. It holding is what says rng.Pick saw the same candidates in the
// same order, so the pinned-F1 and Table II suites still test the corpus
// they were pinned on; TestOfflineByteIdenticalOver100Runs only proves
// run-to-run repeatability.
const offlineGraphsPin = "9a9563e9f80c27ab86fab024b6c9e52521676933a24a8935ffccb5f421c2d7f2"

func TestOfflineGraphsPinned(t *testing.T) {
	pool := testPool()
	homes := benchHomes(8)
	// A rule listed twice, as a request body may.
	dup := append(append([]*rules.Rule(nil), homes[7]...), homes[7][2], homes[7][0])
	b := NewBuilder(21, embed.NewEncoder(24, 32))
	h := sha256.New()
	for i := 0; i < 200; i++ {
		var g *graph.Graph
		switch i % 5 {
		case 0:
			g = b.Offline(pool, 3+i%23)
		case 1:
			g = b.OfflineSized(pool)
		case 2:
			g = b.OfflineWithDrift(pool, DriftKind(i%int(NumDriftKinds)), (i%2)*6)
		case 3:
			home := homes[i%7]
			g = b.Offline(home, len(home))
		default:
			g = b.Offline(dup, len(dup))
		}
		hashGraph(h, g)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != offlineGraphsPin {
		t.Fatalf("200 sampled graphs hash to %s, pinned %s: the sampler, the features or the labels moved",
			got, offlineGraphsPin)
	}
}

// BenchmarkOffline is the ledger row for one /v1/detect request's fusion:
// 512 homes round-robin through Builder.Offline, so the pool index is
// rebuilt per graph and the feature cache (8,192 entries against ≈ 12,000
// distinct rules) misses nearly always, as on detect_http.
func BenchmarkOffline(b *testing.B) {
	for _, d := range []struct {
		name       string
		word, sent int
	}{{"homes=512", 48, 64}, {"homes=512/dims=paper", embed.PaperWordDim, embed.PaperSentenceDim}} {
		b.Run(d.name, func(b *testing.B) {
			homes := benchHomes(512)
			bld := NewBuilder(7, embed.NewEncoder(d.word, d.sent))
			for _, h := range homes {
				bld.Offline(h, len(h))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				h := homes[i%len(homes)]
				sinkGraph = bld.Offline(h, len(h))
			}
		})
	}
}

var sinkFeat []float64

// BenchmarkNodeFeature times rule text → node feature on a miss of the
// node-feature cache (cold: the cache is emptied every pass over the rules,
// the encoder's tables stay) and on a hit (warm).
func BenchmarkNodeFeature(b *testing.B) {
	var rs []*rules.Rule
	for _, h := range benchHomes(32) {
		rs = append(rs, h...)
	}
	b.Run("cold", func(b *testing.B) {
		bld := NewBuilder(7, embed.NewEncoder(48, 64))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if i%len(rs) == 0 {
				bld.featMu.Lock()
				clear(bld.featCache)
				bld.featMu.Unlock()
			}
			sinkFeat, _ = bld.NodeFeature(rs[i%len(rs)])
		}
	})
	b.Run("warm", func(b *testing.B) {
		bld := NewBuilder(7, embed.NewEncoder(48, 64))
		for _, r := range rs {
			bld.NodeFeature(r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sinkFeat, _ = bld.NodeFeature(rs[i%len(rs)])
		}
	})
}

// sameFeature compares two node features bit for bit.
func sameFeature(got, want []float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("dim %d, want %d", len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return fmt.Errorf("[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// platformHomes generates one home per (platform, archetype) pair, so all
// five description grammars and every device catalogue go through the
// encoder.
func platformHomes() [][]*rules.Rule {
	var homes [][]*rules.Rule
	for p := 0; p < rules.NumPlatforms; p++ {
		for i, a := range rules.Archetypes() {
			homes = append(homes, rules.NewGenerator(int64(300+10*p+i), a,
				fmt.Sprintf("p%d-%d-", p, i)).RuleSetOn(rules.Platform(p), 12))
		}
	}
	return homes
}

// fillTables drives made-up tokens and device instances through b until
// the signature table — and, three new tokens a rule, the encoder's token
// table well before it — has stopped growing.
func fillTables(b *Builder) {
	for i := 0; len(b.sigs) < maxSigEntries; i++ {
		r := &rules.Rule{
			Platform:    rules.Platform(i % rules.NumPlatforms),
			Description: fmt.Sprintf("turn filler%d to filler%d when filler%d", 3*i, 3*i+1, 3*i+2),
			Trigger:     rules.Condition{Device: "sensor", Room: fmt.Sprintf("room%d", i), State: "odd"},
		}
		b.NodeFeature(r)
	}
}

// TestNodeFeatureMatchesReference compares NodeFeature with the reference
// (the parent commit's body over a fresh encoder) on every platform and
// archetype: on cold tables, on warm ones with the node-feature cache
// emptied, on a cache hit, and with every table at its bound.
func TestNodeFeatureMatchesReference(t *testing.T) {
	homes := platformHomes()
	refEnc := embed.NewEncoder(24, 32)
	b := NewBuilder(3, embed.NewEncoder(24, 32))
	full := NewBuilder(3, embed.NewEncoder(24, 32))
	fillTables(full)
	sigsWhenFull := len(full.sigs)
	voice := 0
	for _, home := range homes {
		for _, r := range home {
			want, wantSpace := refNodeFeature(refEnc, r)
			if wantSpace == graph.SentenceSpace {
				voice++
			}
			if got, want := b.ruleContentHash(r), refRuleContentHash(b, r); got != want {
				t.Fatalf("rule %s: content hash %x, want %x", r.ID, got, want)
			}
			for _, c := range []struct {
				what string
				b    *Builder
				prep func()
			}{
				{"cold", b, func() {}},
				{"warm tables, cache miss", b, func() { clear(b.featCache) }},
				{"cache hit", b, func() {}},
				{"tables at their bound", full, func() {}},
			} {
				c.prep()
				got, space := c.b.NodeFeature(r)
				if space != wantSpace {
					t.Fatalf("rule %s, %s: space %d, want %d", r.ID, c.what, space, wantSpace)
				}
				if err := sameFeature(got, want); err != nil {
					t.Fatalf("rule %s (%q), %s: %v", r.ID, r.Description, c.what, err)
				}
			}
		}
	}
	if voice == 0 {
		t.Fatal("no sentence-space rule generated")
	}
	if len(full.sigs) != sigsWhenFull || sigsWhenFull > maxSigEntries {
		t.Fatalf("signature table went from %d to %d entries, bound %d", sigsWhenFull, len(full.sigs), maxSigEntries)
	}
}

// TestNodeFeatureConcurrent computes features from 8 goroutines at once —
// every goroutine the shared homes, plus rules of its own that between them
// overflow the signature table and the encoder's token table — and compares
// each with the serial reference. Under -race this is what covers the
// tables NodeFeature reaches outside the builder lock.
func TestNodeFeatureConcurrent(t *testing.T) {
	homes := platformHomes()[:10]
	refEnc := embed.NewEncoder(16, 24)
	type expect struct {
		r     *rules.Rule
		feat  []float64
		space graph.FeatureSpace
	}
	var shared []expect
	for _, home := range homes {
		for _, r := range home {
			f, s := refNodeFeature(refEnc, r)
			shared = append(shared, expect{r, f, s})
		}
	}
	b := NewBuilder(3, embed.NewEncoder(16, 24))
	const workers, own = 8, 1200 // 9,600 made-up instances > maxSigEntries
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			enc := embed.NewEncoder(16, 24) // the reference's, one per goroutine
			for i := 0; i < own; i++ {
				r := &rules.Rule{
					Platform:    rules.Platform(i % rules.NumPlatforms),
					Description: fmt.Sprintf("open valve%dx%d if leak%dx%d trips", w, i, w, i),
					Trigger:     rules.Condition{Device: "leak sensor", Room: fmt.Sprintf("r%d-%d", w, i), State: "wet"},
					Actions:     []rules.Effect{{Device: "valve", Room: fmt.Sprintf("r%d-%d", w, i), State: "on"}},
				}
				want, _ := refNodeFeature(enc, r)
				got, _ := b.NodeFeature(r)
				if err := sameFeature(got, want); err != nil {
					t.Errorf("worker %d own rule %d: %v", w, i, err)
					return
				}
				e := shared[(w*own+i)%len(shared)]
				got, space := b.NodeFeature(e.r)
				if err := sameFeature(got, e.feat); err != nil || space != e.space {
					t.Errorf("worker %d shared rule %s: %v (space %d, want %d)", w, e.r.ID, err, space, e.space)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := len(b.sigs); n != maxSigEntries {
		t.Errorf("signature table holds %d entries after %d distinct instances, bound %d", n, workers*own, maxSigEntries)
	}
}

// TestPoolIndexOrderMatchesReference compares partner lists — order
// included, which is what rng.Pick draws from — with the reference index
// over pools that list a rule twice, share triggers between rules and hold
// self-triggering rules, for anchors inside and outside the pool, through
// one index re-used from pool to pool.
func TestPoolIndexOrderMatchesReference(t *testing.T) {
	r := rng.New(9)
	big := testPool()
	selfTrigger := &rules.Rule{ID: "self",
		Trigger: rules.Condition{Device: "fan", Room: "attic", Channel: rules.ChanPower, State: "running"},
		Actions: []rules.Effect{{Device: "fan", Room: "attic", Channel: rules.ChanPower, State: "running"}}}
	ix := NewPoolIndex(nil)
	for trial := 0; trial < 60; trial++ {
		var pool []*rules.Rule
		home := benchHomes(60)[trial]
		switch trial % 3 {
		case 0:
			pool = append(pool, home...)
		case 1:
			pool = append(pool, big[r.Intn(len(big)-200):][:200]...)
		default:
			for i := 0; i < 40; i++ {
				pool = append(pool, rng.Pick(r, home)) // repeats
			}
		}
		twin := *pool[0] // shares pool[0]'s trigger and actions under another identity
		twin.ID = "twin"
		pool = append(pool, selfTrigger, &twin, pool[len(pool)/2], selfTrigger)
		ix.reset(pool)
		ref := newRefPoolIndex(pool)
		outsider := *pool[1]
		for _, anchor := range append([]*rules.Rule{&outsider}, pool...) {
			numbers := ix.neighbors(nil, anchor, ix.numberOf(anchor))
			var near []*rules.Rule
			for _, n := range numbers {
				near = append(near, pool[n])
			}
			for _, c := range []struct {
				what      string
				got, want []*rules.Rule
			}{
				{"Forward", ix.Forward(nil, anchor), ref.Forward(anchor)},
				{"Backward", backwardRules(ix, anchor), ref.Backward(anchor)},
				{"neighbors", near, ref.Neighbors(anchor)},
			} {
				if !reflect.DeepEqual(c.got, c.want) {
					t.Fatalf("trial %d anchor %s: %s\n got %v\nwant %v", trial, anchor.ID, c.what, ids(c.got), ids(c.want))
				}
			}
		}
	}
}

// backwardRules returns the pool rules whose actions can trigger anchor:
// the backward half of neighbors on its own, as Forward returns the other.
func backwardRules(ix *PoolIndex, anchor *rules.Rule) []*rules.Rule {
	ix.begin(ix.numberOf(anchor))
	ix.numbers = ix.backward(ix.numbers[:0], anchor)
	return ix.rulesOf(nil)
}

func ids(rs []*rules.Rule) []string {
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.ID
	}
	return out
}

// TestOfflineAllocCeiling is the hard half of BenchmarkOffline's ledger
// row: a 24-rule Offline — the size of a median /v1/detect request — on
// warm encoder and signature tables but an empty node-feature cache, which
// is what detect_http's 5 % hit ratio amounts to. Commit 71646be allocated
// 929 times here. What is left is the graph itself (nodes, edges, ID,
// tags), two slices per node feature (the caller's and the cache's), the
// findings, and an injected pattern's rules and descriptions in the 18 %
// of graphs that get one.
func TestOfflineAllocCeiling(t *testing.T) {
	home := rules.NewGenerator(5, rules.Archetypes()[0], "a-").RuleSet(24)
	b := NewBuilder(7, embed.NewEncoder(48, 64))
	for i := 0; i < 50; i++ {
		b.Offline(home, len(home))
	}
	allocs := testing.AllocsPerRun(200, func() {
		clear(b.featCache)
		sinkGraph = b.Offline(home, len(home))
	})
	t.Logf("%.0f allocs per 24-rule Offline on warm tables", allocs)
	if allocs > 450 {
		t.Fatalf("%.0f allocs per 24-rule Offline on warm tables, ceiling 450", allocs)
	}
}
