package gnn

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"fexiot/internal/autodiff"
	"fexiot/internal/embed"
	"fexiot/internal/fusion"
	"fexiot/internal/graph"
	"fexiot/internal/rng"
)

// magnnPinned is the SHA-256 TestMAGNNPinned computes. It was 8533c043…,
// from commit 5aa7b25, where MAGNN had a Forward of its own that scattered
// each node type's projection into place and was explained on masked
// copies of the graph, until training moved to one tape per optimiser
// step: the embeddings and the per-pair gradients hashed before the
// TrainContrastive call kept their bits, and what follows it — the trained
// weights, the scores — moved, as the step sums its gradient terms in
// another order.
const magnnPinned = "86e936899db8b83da4512c6d09c981a2eec357e8dba1e6e5fa312d7c3cb0561d"

// TestMAGNNPinned hashes what MAGNN computes on generated five-platform
// graphs at CI and paper dimensions: every graph's embedding; every
// parameter's gradient after a contrastive pass over a word-only and a
// mixed graph and one over two word-only graphs (which leaves the sentence
// projection's gradient nil, and the hash records nil apart from zero);
// the weights after one TrainContrastive call; and a detector's GraphScorer
// scores of a fixed run of coalitions.
func TestMAGNNPinned(t *testing.T) {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	putAll := func(xs []float64) {
		put(uint64(len(xs)))
		for _, x := range xs {
			put(math.Float64bits(x))
		}
	}
	for _, dims := range []struct{ word, sent, hidden, out int }{{48, 64, 24, 16}, {300, 512, 64, 32}} {
		enc := embed.NewEncoder(dims.word, dims.sent)
		pool := fusion.MultiHomePool(7, 20, 25, nil)
		b := fusion.NewBuilder(8, enc)
		var gs []*graph.Graph
		for i := 0; i < 12; i++ {
			gs = append(gs, b.OfflineSized(pool))
		}
		// Each space's nodes of the graphs, as graphs of one space only.
		var words []*graph.Graph
		var sentences *graph.Graph
		for _, g := range gs {
			var word, sent []int
			for i, n := range g.Nodes {
				if n.Space == graph.SentenceSpace {
					sent = append(sent, i)
				} else {
					word = append(word, i)
				}
			}
			if len(word) > 0 && len(sent) > 0 {
				words = append(words, g.InducedSubgraph(word))
				if sentences == nil {
					sentences = g.InducedSubgraph(sent)
				}
			}
		}
		if len(words) < 2 || sentences == nil {
			t.Fatalf("dims %v: %d mixed graphs, want two with both spaces", dims, len(words))
		}
		all := append(append([]*graph.Graph{}, gs...), words[0], words[1], sentences)

		m := NewMAGNN(fusion.WordFeatureDim(enc), fusion.SentenceFeatureDim(enc), dims.hidden, dims.out, 21)
		for _, g := range all {
			putAll(Embed(m, g))
		}

		for _, pair := range [][2]*graph.Graph{{words[0], gs[1]}, {words[0], words[1]}} {
			tape := autodiff.NewTape()
			binder := autodiff.Bind(tape, m.Params())
			za := m.Forward(tape, binder, pair[0])
			zb := m.Forward(tape, binder, pair[1])
			tape.Backward(tape.ContrastiveLoss(za, zb, true, 1))
			for _, name := range m.Params().Names() {
				// Node binds a parameter the pass did not use to a fresh
				// leaf, whose gradient is nil.
				g := binder.Node(name).Grad
				if g == nil {
					put(0)
					continue
				}
				put(1)
				putAll(g.Data())
			}
		}

		cfg := DefaultTrainConfig(9)
		cfg.PairsPerEpoch = 8
		if !TrainContrastive(m, all, cfg, autodiff.NewAdam(0.01)) {
			t.Fatalf("dims %v: training diverged", dims)
		}
		putAll(m.Params().Flatten())

		det := NewDetector(m, 3)
		det.FitClassifier(gs)
		r := rng.New(5)
		for _, g := range all[:6] {
			sc := det.Scorer(nil, g)
			for i := 0; i < 24; i++ {
				keep := r.Perm(g.N())[:1+r.Intn(g.N())]
				put(math.Float64bits(sc.Score(keep)))
			}
			sc.Release()
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != magnnPinned {
		t.Fatalf("MAGNN hash %s, pinned %s", got, magnnPinned)
	}
}
