package explain

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
)

// refDims are the two sizes the models run at: the CI defaults and the
// paper's (word/sentence feature widths after the two signature blocks).
var refDims = []struct {
	name                      string
	word, sent, hidden, embed int
}{
	{"ci", 80, 96, 24, 16},
	{"paper", 332, 544, 64, 32},
}

// genGraph draws an interaction-graph-shaped test graph: a few components
// of 1–12 nodes (a random tree plus extra edges, some of them repeats,
// reverse directions and self loops) and a few isolated nodes, in shuffled
// node order, with word- and sentence-space features.
func genGraph(r *rng.RNG, word, sent int) *graph.Graph {
	g := &graph.Graph{ID: "gen"}
	var comps [][]int
	for c, nc := 0, 1+r.Intn(3); c < nc; c++ {
		size := 1 + r.Intn(12)
		if c > 0 {
			size = 1 + r.Intn(4)
		}
		comps = append(comps, make([]int, size))
	}
	total := r.Intn(3) // isolated nodes
	for _, c := range comps {
		total += len(c)
	}
	order := r.Perm(total)
	for i := 0; i < total; i++ {
		dim, space := word, graph.WordSpace
		if r.Intn(4) == 0 {
			dim, space = sent, graph.SentenceSpace
		}
		f := make([]float64, dim)
		for j := range f {
			f[j] = r.NormFloat64()
		}
		g.AddNode(graph.Node{Feature: f, Space: space})
	}
	kind := func() rules.MatchKind {
		if r.Intn(2) == 0 {
			return rules.EnvMatch
		}
		return rules.DirectMatch
	}
	next := 0
	for _, c := range comps {
		for i := range c {
			c[i] = order[next]
			next++
			if i > 0 {
				u, v := c[r.Intn(i)], c[i]
				if r.Intn(2) == 0 {
					u, v = v, u
				}
				g.Edges = append(g.Edges, graph.Edge{From: u, To: v, Kind: kind()})
			}
		}
		for e := r.Intn(len(c) + 1); e > 0; e-- {
			// Appended directly: AddEdge would drop the repeats.
			g.Edges = append(g.Edges, graph.Edge{From: c[r.Intn(len(c))], To: c[r.Intn(len(c))], Kind: kind()})
		}
	}
	return g
}

// refDetector is a model with a fitted classifier head; the weights are
// the initialisation's, which scores coalitions as variously as trained
// ones do.
func refDetector(model string, d int) *gnn.Detector {
	dm := refDims[d]
	var m gnn.Model
	switch model {
	case "GIN":
		m = gnn.NewGIN(dm.word, dm.hidden, dm.embed, 41)
	case "GCN":
		m = gnn.NewGCN(dm.word, dm.hidden, dm.embed, 42)
	default:
		m = gnn.NewMAGNN(dm.word, dm.sent, dm.hidden, dm.embed, 43)
	}
	r := rng.New(7)
	var train []*graph.Graph
	for i := 0; i < 30; i++ {
		g := genGraph(r, dm.word, dm.sent)
		g.Label = i%2 == 0
		train = append(train, g)
	}
	det := gnn.NewDetector(m, 3)
	det.FitClassifier(train)
	return det
}

// blackBoxOf is the ScoreFunc every caller used to hand the explainer.
func blackBoxOf(det *gnn.Detector) ScoreFunc {
	return func(g *graph.Graph) float64 {
		if g.N() == 0 {
			return 0
		}
		return det.Score(g)
	}
}

// TestExplainMatchesReference holds the package's one search — over the
// detector's scorer, and over the black-box adapter — to the code it
// replaced (explain_ref_test.go): equal node lists, bit-equal scores and
// fidelities and the same number of model scores for every model, size,
// method and generated graph.
func TestExplainMatchesReference(t *testing.T) {
	graphs := 200
	if testing.Short() || raceEnabled {
		graphs = 40 // the reference costs ~15× under the race detector
	}
	methods := []struct {
		name   string
		method Method
		ref    func(ScoreFunc, *graph.Graph, SearchConfig) Explanation
	}{
		{"FexIoT", MethodFexIoT, refFexIoTExplain},
		{"SubgraphX", MethodSubgraphX, refSubgraphX},
		{"MCTSGNN", MethodMCTSGNN, refMCTSGNN},
	}
	for d, dm := range refDims {
		for _, model := range []string{"GIN", "GCN", "MAGNN"} {
			t.Run(fmt.Sprintf("%s/%s", model, dm.name), func(t *testing.T) {
				t.Parallel()
				det := refDetector(model, d)
				calls := 0 // scores asked of the model, whichever way
				score := blackBoxOf(det)
				h := func(g *graph.Graph) float64 { calls++; return score(g) }
				r := rng.New(int64(100 + d))
				for i := 0; i < graphs; i++ {
					var g *graph.Graph
					switch i {
					case 0:
						g = &graph.Graph{ID: "empty"}
					case 1:
						g = genGraph(r, dm.word, dm.sent)
						g.Nodes, g.Edges = g.Nodes[:1], nil
					default:
						g = genGraph(r, dm.word, dm.sent)
					}
					for _, m := range methods {
						cfg := DefaultSearchConfig(int64(i))
						cfg.MinNodes = 2 + i%3
						calls = 0
						want := m.ref(h, g, cfg)
						wantFid := refFidelity(h, g, want.Nodes)
						wantCalls := calls

						sc := det.Scorer(nil, g)
						got, err := Search(context.Background(), sc, g, cfg, m.method)
						if err != nil {
							t.Fatal(err)
						}
						gotFid := FidelityOf(sc, g, got.Nodes)
						sc.Release()
						check := func(path string, got Explanation, gotFid float64, gotCalls int) {
							if !reflect.DeepEqual(got.Nodes, want.Nodes) ||
								math.Float64bits(got.Score) != math.Float64bits(want.Score) ||
								math.Float64bits(gotFid) != math.Float64bits(wantFid) || gotCalls != wantCalls {
								t.Fatalf("graph %d (%d nodes, %d edges) %s via %s: %+v fidelity %v in %d scores, reference %+v fidelity %v in %d",
									i, g.N(), len(g.Edges), m.name, path, got, gotFid, gotCalls, want, wantFid, wantCalls)
							}
						}
						check("scorer", got, gotFid, sc.Stats().Calls)
						if dm.name == "ci" {
							calls = 0
							box := blackBoxSearch(h, g, cfg, m.method)
							boxFid := Fidelity(h, g, box.Nodes)
							check("black box", box, boxFid, calls)
						}
					}
				}
			})
		}
	}
}

// TestKernelSHAPMatchesReference: the single evaluations — exported
// KernelSHAP and the evaluator's Shapley estimator — equal the reference's
// with an equal-seeded generator.
func TestKernelSHAPMatchesReference(t *testing.T) {
	det := refDetector("GIN", 0)
	h := blackBoxOf(det)
	r := rng.New(3)
	for i := 0; i < 40; i++ {
		g := genGraph(r, refDims[0].word, refDims[0].sent)
		var sub []int
		for v := 0; v < g.N(); v++ {
			if r.Intn(3) == 0 {
				sub = append(sub, v)
			}
		}
		for _, k := range []int{1, 2, 12} {
			if got, want := KernelSHAP(h, g, sub, k, int64(i)), refKernelSHAPRNG(h, g, sub, k, rng.New(int64(i))); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("graph %d sub %v k %d: KernelSHAP %v, reference %v", i, sub, k, got, want)
			}
			shapley := newEvaluator(blackBox{h, g}, g.N()).shapleyValue(sub, k, rng.New(int64(i)))
			if want := refShapleyValueRNG(h, g, sub, k, rng.New(int64(i))); math.Float64bits(shapley) != math.Float64bits(want) {
				t.Fatalf("graph %d sub %v k %d: shapleyValue %v, reference %v", i, sub, k, shapley, want)
			}
		}
	}
}

// countingCtx is a context whose Err starts failing at its nth call.
type countingCtx struct {
	context.Context
	calls, failAt int
}

func (c *countingCtx) Err() error {
	c.calls++
	if c.calls >= c.failAt {
		return context.Canceled
	}
	return nil
}

// TestSearchStopsAtNextReward: a context cancelled mid-search is noticed at
// the next reward evaluation — no score is asked for after it — and the
// search returns the context's error.
func TestSearchStopsAtNextReward(t *testing.T) {
	g, h := planted()
	scores := 0
	counting := func(sub *graph.Graph) float64 { scores++; return h(sub) }
	cfg := DefaultSearchConfig(7)
	cfg.MinNodes = 2
	if _, err := Search(context.Background(), blackBox{counting, g}, g, cfg, MethodFexIoT); err != nil {
		t.Fatal(err)
	}
	full := scores
	for _, failAt := range []int{1, 2, 5} {
		scores = 0
		ctx := &countingCtx{Context: context.Background(), failAt: failAt}
		_, err := Search(ctx, blackBox{counting, g}, g, cfg, MethodFexIoT)
		if err != context.Canceled {
			t.Fatalf("cancelled at check %d: error %v", failAt, err)
		}
		if ctx.calls != failAt {
			t.Fatalf("cancelled at check %d: context consulted %d times", failAt, ctx.calls)
		}
		// failAt−1 rewards ran to completion, K scores apiece.
		if want := (failAt - 1) * cfg.KernelSamples; scores != want || scores >= full {
			t.Fatalf("cancelled at check %d: %d scores, want %d (uninterrupted %d)", failAt, scores, want, full)
		}
	}
}
