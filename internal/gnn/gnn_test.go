package gnn

import (
	"math"
	"testing"

	"fexiot/internal/autodiff"
	"fexiot/internal/embed"
	"fexiot/internal/fusion"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
)

// testGraphs builds a small labelled corpus from the synthetic pipeline.
var testEnc = embed.NewEncoder(24, 32)

// featDim is the word-space node feature width for the test encoder.
var featDim = fusion.WordFeatureDim(testEnc)
var sentDim = fusion.SentenceFeatureDim(testEnc)

func testGraphs(t *testing.T, n int) []*graph.Graph {
	t.Helper()
	return makeGraphs(n)
}

func benchGraphs(b *testing.B, n int) []*graph.Graph {
	b.Helper()
	return makeGraphs(n)
}

func makeGraphs(n int) []*graph.Graph {
	pool := fusion.MultiHomePool(3, 40, 25, nil)
	b := fusion.NewBuilder(5, testEnc)
	out := make([]*graph.Graph, n)
	for i := range out {
		out[i] = b.OfflineSized(pool)
	}
	return out
}

func modelsUnderTest() map[string]Model {
	return map[string]Model{
		"gcn":   NewGCN(featDim, 16, 8, 1),
		"gin":   NewGIN(featDim, 16, 8, 2),
		"magnn": NewMAGNN(featDim, sentDim, 16, 8, 3),
	}
}

func TestModelsEmbedAndAreDeterministic(t *testing.T) {
	gs := testGraphs(t, 4)
	for name, m := range modelsUnderTest() {
		for _, g := range gs {
			z1 := Embed(m, g)
			z2 := Embed(m, g)
			if len(z1) != m.EmbedDim() {
				t.Fatalf("%s embed dim %d want %d", name, len(z1), m.EmbedDim())
			}
			for i := range z1 {
				if z1[i] != z2[i] {
					t.Fatalf("%s embedding not deterministic", name)
				}
				if math.IsNaN(z1[i]) || math.IsInf(z1[i], 0) {
					t.Fatalf("%s embedding has NaN/Inf", name)
				}
			}
		}
	}
}

func TestFreshModelsDiffer(t *testing.T) {
	gs := testGraphs(t, 1)
	for name, m := range modelsUnderTest() {
		f := m.Fresh(99)
		z1 := Embed(m, gs[0])
		z2 := Embed(f, gs[0])
		same := true
		for i := range z1 {
			if z1[i] != z2[i] {
				same = false
			}
		}
		if same {
			t.Fatalf("%s Fresh should reinitialise weights", name)
		}
		// Structure must match for federated averaging.
		if len(f.Params().Names()) != len(m.Params().Names()) {
			t.Fatalf("%s Fresh changed parameter structure", name)
		}
	}
}

func TestLayerAssignmentsBottomUp(t *testing.T) {
	for name, m := range modelsUnderTest() {
		p := m.Params()
		if p.NumLayers() < 2 {
			t.Fatalf("%s needs ≥2 layers for layer-wise clustering", name)
		}
		for l := 0; l < p.NumLayers(); l++ {
			if p.LayerElements(l) == 0 {
				t.Fatalf("%s layer %d is empty", name, l)
			}
		}
	}
}

func TestContrastiveTrainingSeparatesClasses(t *testing.T) {
	gs := testGraphs(t, 80)
	var pos, neg []*graph.Graph
	for _, g := range gs {
		if g.Label {
			pos = append(pos, g)
		} else {
			neg = append(neg, g)
		}
	}
	if len(pos) < 5 || len(neg) < 5 {
		t.Skip("unbalanced sample; dataset quota logic handles this in production")
	}
	m := NewGIN(featDim, 16, 8, 7)
	cfg := DefaultTrainConfig(11)
	cfg.LR = 0.005
	cfg.PairsPerEpoch = 400
	opt := autodiff.NewAdam(cfg.LR)

	meanGap := func() float64 {
		// Average cross-class distance minus average in-class distance.
		var cross, within float64
		var nc, nw int
		for i := 0; i < len(pos) && i < 10; i++ {
			for j := 0; j < len(neg) && j < 10; j++ {
				cross += mat.Dist2(Embed(m, pos[i]), Embed(m, neg[j]))
				nc++
			}
		}
		for i := 0; i < len(neg)-1 && i < 10; i++ {
			within += mat.Dist2(Embed(m, neg[i]), Embed(m, neg[i+1]))
			nw++
		}
		return cross/float64(nc) - within/float64(nw)
	}
	before := meanGap()
	for round := 0; round < 6; round++ {
		cfg.Seed = int64(round)
		TrainContrastive(m, gs, cfg, opt)
	}
	after := meanGap()
	// A single short run is noisy; after six rounds the gap must clearly
	// widen relative to the random-init baseline.
	if after <= before {
		t.Fatalf("contrastive training should widen the class gap: before %v after %v",
			before, after)
	}
}

// TestTrainContrastiveRollsBackNonFinite pins the divergence gate: a round
// that meets a non-finite loss or gradient — here from one graph's NaN node
// feature, first drawn after the optimiser has already stepped — returns
// false, leaves every weight bit for bit as it was at entry and counts one
// divergence, while the same graphs without the NaN train through.
func TestTrainContrastiveRollsBackNonFinite(t *testing.T) {
	for _, poisoned := range []bool{true, false} {
		gs := sizedGraphs(9, 24, 4)
		if poisoned {
			gs[7].Nodes[0].Feature[0] = math.NaN()
		}
		m := NewGIN(featDim, 16, 8, 7)
		entry := m.Params().Clone()
		cfg := DefaultTrainConfig(3)
		cfg.Metrics = obs.NewRegistry()
		ok := TrainContrastive(m, gs, cfg, autodiff.NewAdam(0.005))
		diverged := cfg.Metrics.Counter("fexiot_train_divergence_total", "").Value()
		if !poisoned {
			if !ok || diverged != 0 {
				t.Fatalf("finite graphs: completed = %v, divergences = %d; want true, 0", ok, diverged)
			}
			continue
		}
		if ok || diverged != 1 {
			t.Fatalf("NaN feature: completed = %v, divergences = %d; want false, 1", ok, diverged)
		}
		if cfg.Metrics.Gauge("fexiot_train_grad_norm", "").Value() == 0 {
			t.Fatal("the NaN graph was drawn in the first batch: nothing stepped, so nothing was rolled back")
		}
		paramsBitEqual(t, "rolled-back round", m.Params(), entry)
	}
}

// TestTrainSupervisedRollsBackNonFinite pins TrainSupervised's divergence
// gate: one graph's NaN feature, first drawn in the second optimiser step,
// makes the round return false with the model's and the head's weights
// bit for bit as they were at entry, while the same graphs without the NaN
// train through and move both. (ClipGrads' `norm > clip` is false for a
// NaN norm, so without the gate the NaN reaches Adam.)
func TestTrainSupervisedRollsBackNonFinite(t *testing.T) {
	const n = 12
	cfg := DefaultTrainConfig(4)
	cfg.PairsPerEpoch = 2 * batchPairs
	// The graph the second step draws and the first does not.
	r, first, nan := rng.New(cfg.Seed), map[int]bool{}, -1
	for k := 0; k < cfg.PairsPerEpoch; k++ {
		if i := r.Intn(n); k < batchPairs {
			first[i] = true
		} else if !first[i] && nan < 0 {
			nan = i
		}
	}
	if nan < 0 {
		t.Fatal("every graph the second step draws was drawn in the first: pick another seed")
	}
	for _, poisoned := range []bool{true, false} {
		gs := sizedGraphs(9, n, 4)
		if poisoned {
			gs[nan].Nodes[0].Feature[0] = math.NaN()
		}
		m := NewGIN(featDim, 16, 8, 7)
		head := NewSupervisedHead(m.EmbedDim(), 4)
		entry, headEntry := m.Params().Clone(), head.params.Clone()
		ok := TrainSupervised(m, head, gs, cfg, autodiff.NewAdam(0.005), autodiff.NewAdam(0.005), nil)
		if !poisoned {
			if !ok || m.Params().LayerDiffNorms(entry)[0] == 0 || head.params.LayerDiffNorms(headEntry)[0] == 0 {
				t.Fatalf("finite graphs: completed = %v, or a weight set did not move", ok)
			}
			continue
		}
		if ok {
			t.Fatal("NaN feature: the round completed")
		}
		paramsBitEqual(t, "rolled-back model", m.Params(), entry)
		paramsBitEqual(t, "rolled-back head", head.params, headEntry)
	}
}

func TestDetectorPipeline(t *testing.T) {
	gs := testGraphs(t, 300)
	m := NewGIN(featDim, 16, 8, 13)
	cfg := DefaultTrainConfig(17)
	cfg.PairsPerEpoch = 500
	cfg.LR = 0.005
	opt := autodiff.NewAdam(cfg.LR)
	for round := 0; round < 4; round++ {
		cfg.Seed = int64(round)
		TrainContrastive(m, gs[:240], cfg, opt)
	}
	d := NewDetector(m, 3)
	d.FitClassifier(gs[:240])
	metrics := EvaluateDetector(d, gs[240:])
	// Even a briefly trained model must beat chance decisively on held-out
	// graphs.
	if metrics.Accuracy < 0.6 {
		t.Fatalf("detector accuracy %v too low (metrics %+v)", metrics.Accuracy, metrics)
	}
}

func TestMAGNNHandlesMixedFeatureSpaces(t *testing.T) {
	// Build a toy heterogeneous graph directly: word node (24-d) plus
	// sentence node (32-d).
	g := &graph.Graph{}
	wf := make([]float64, 24)
	wf[0] = 1
	sf := make([]float64, 32)
	sf[1] = 1
	g.AddNode(graph.Node{Feature: wf, Space: graph.WordSpace})
	g.AddNode(graph.Node{Feature: sf, Space: graph.SentenceSpace})
	g.AddEdge(0, 1, rules.DirectMatch)
	m := NewMAGNN(24, 32, 16, 8, 5)
	_ = sentDim
	z := Embed(m, g)
	if len(z) != 8 {
		t.Fatalf("embed dim %d", len(z))
	}
	var nonzero bool
	for _, v := range z {
		if v != 0 {
			nonzero = true
		}
		if math.IsNaN(v) {
			t.Fatal("NaN in MAGNN embedding")
		}
	}
	if !nonzero {
		t.Fatal("MAGNN embedding all zero")
	}
}

// TestGNNGradientsFlowToAllLayers: one contrastive pair's backward pass
// reaches every layer of GIN, GCN and MAGNN — some parameter of each layer
// index gets a nonzero gradient. One Adam step shows it: a zero gradient
// moves no weight (m and v stay 0), a nonzero one moves its weight, so a
// layer's weights moved exactly when some gradient of it was nonzero. The
// check is per layer, not per tensor: MAGNN skips a space's projection
// when the graph has no node of that space.
func TestGNNGradientsFlowToAllLayers(t *testing.T) {
	gs := testGraphs(t, 2)
	for name, m := range modelsUnderTest() {
		tape := autodiff.NewTape()
		binder := autodiff.Bind(tape, m.Params())
		za := m.Forward(tape, binder, gs[0])
		zb := m.Forward(tape, binder, gs[1])
		loss := tape.ContrastiveLoss(za, zb, gs[0].Label != gs[1].Label, 2.0)
		tape.Backward(loss)
		grads := autodiff.NewGrads(m.Params())
		grads.Add(binder)
		before := m.Params().Clone()
		autodiff.NewAdam(0.01).Step(m.Params(), grads)
		moved := m.Params().LayerDiffNorms(before)
		for l := 0; l < m.Params().NumLayers(); l++ {
			if !(moved[l] > 0) {
				t.Errorf("%s: no gradient reached layer %d (%v)", name, l, m.Params().LayerNames(l))
			}
		}
	}
}

func TestEmbedSensitiveToStructure(t *testing.T) {
	// Same nodes, different wiring → different embeddings (for a random
	// model this holds almost surely).
	r := rng.New(31)
	mkGraph := func(wire bool) *graph.Graph {
		g := &graph.Graph{}
		for i := 0; i < 4; i++ {
			f := make([]float64, featDim)
			f[i] = 1
			g.AddNode(graph.Node{Feature: f, Space: graph.WordSpace})
		}
		if wire {
			g.AddEdge(0, 1, rules.DirectMatch)
			g.AddEdge(1, 2, rules.DirectMatch)
		} else {
			g.AddEdge(0, 3, rules.DirectMatch)
			g.AddEdge(3, 2, rules.DirectMatch)
		}
		return g
	}
	_ = r
	for name, m := range modelsUnderTest() {
		z1 := Embed(m, mkGraph(true))
		z2 := Embed(m, mkGraph(false))
		if mat.Dist2(z1, z2) == 0 {
			t.Fatalf("%s is blind to edge structure", name)
		}
	}
}
