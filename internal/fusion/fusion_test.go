package fusion

import (
	"strings"
	"testing"
	"testing/quick"

	"fexiot/internal/embed"
	"fexiot/internal/eventlog"
	"fexiot/internal/graph"
	"fexiot/internal/rules"
	"fexiot/internal/vuln"
)

var testEnc = embed.NewEncoder(24, 32)

func testPool() []*rules.Rule {
	return MultiHomePool(3, 40, 25, nil)
}

func TestMultiHomePool(t *testing.T) {
	pool := testPool()
	if len(pool) != 40*25 {
		t.Fatalf("pool size %d", len(pool))
	}
	ids := map[string]bool{}
	platforms := map[rules.Platform]int{}
	for _, r := range pool {
		if ids[r.ID] {
			t.Fatalf("duplicate rule id %s", r.ID)
		}
		ids[r.ID] = true
		platforms[r.Platform]++
	}
	if len(platforms) < 4 {
		t.Fatalf("pool covers only %d platforms", len(platforms))
	}
	// Platform-restricted pool.
	p := rules.IFTTT
	ifttt := MultiHomePool(3, 10, 10, &p)
	for _, r := range ifttt {
		if r.Platform != rules.IFTTT {
			t.Fatal("restricted pool leaked other platforms")
		}
	}
}

func TestOfflineGraphWellFormed(t *testing.T) {
	pool := testPool()
	b := NewBuilder(5, testEnc)
	for i := 0; i < 30; i++ {
		g := b.OfflineSized(pool)
		if g.N() < 2 || g.N() > 50 {
			t.Fatalf("graph size %d out of [2,50]", g.N())
		}
		for _, e := range g.Edges {
			if e.From < 0 || e.From >= g.N() || e.To < 0 || e.To >= g.N() {
				t.Fatalf("edge out of range: %+v", e)
			}
			// Every edge must be backed by the oracle.
			if rules.RuleCanTrigger(g.Nodes[e.From].Rule, g.Nodes[e.To].Rule) == rules.NoMatch {
				t.Fatal("edge without oracle support")
			}
		}
		for _, n := range g.Nodes {
			if n.Rule == nil || len(n.Feature) == 0 {
				t.Fatal("node missing rule or feature")
			}
			wantDim := WordFeatureDim(testEnc)
			if n.Space == graph.SentenceSpace {
				wantDim = SentenceFeatureDim(testEnc)
			}
			if len(n.Feature) != wantDim {
				t.Fatalf("feature dim %d want %d", len(n.Feature), wantDim)
			}
		}
	}
}

func TestOfflineDeterministic(t *testing.T) {
	pool := testPool()
	a := NewBuilder(7, testEnc).OfflineSized(pool)
	b := NewBuilder(7, testEnc).OfflineSized(pool)
	if a.N() != b.N() || len(a.Edges) != len(b.Edges) || a.Label != b.Label {
		t.Fatal("builder not deterministic")
	}
}

func TestLabelsMatchDetectors(t *testing.T) {
	pool := testPool()
	b := NewBuilder(9, testEnc)
	for i := 0; i < 20; i++ {
		g := b.OfflineSized(pool)
		findings := vuln.Detect(g)
		if g.Label != (len(findings) > 0) {
			t.Fatal("label inconsistent with detectors")
		}
	}
}

func TestInjectedPatternsDetected(t *testing.T) {
	// Each injected pattern type must trigger its intended detector when
	// built standalone.
	wantTags := map[int]string{
		0: "condition_bypass",
		1: "condition_block",
		2: "action_revert",
		3: "action_loop",
		4: "action_conflict",
		5: "action_duplicate",
	}
	for kind, wantTag := range wantTags {
		b := NewBuilder(int64(kind)+13, testEnc)
		rs := b.injectPatternOf(kind, nil)
		g := &graph.Graph{}
		for _, r := range rs {
			feat, space := b.NodeFeature(r)
			g.AddNode(graph.Node{Rule: r, Feature: feat, Space: space})
		}
		for i, ri := range rs {
			for j, rj := range rs {
				if i != j {
					if k := rules.RuleCanTrigger(ri, rj); k != rules.NoMatch {
						g.AddEdge(i, j, k)
					}
				}
			}
		}
		vuln.Label(g)
		found := false
		for _, tag := range g.Tags {
			if tag == wantTag {
				found = true
			}
		}
		if !found {
			t.Errorf("pattern %d: tags %v missing %q", kind, g.Tags, wantTag)
		}
	}
}

func TestPairFeaturesShapeAndSeparation(t *testing.T) {
	pool := testPool()
	f := NewPairFeaturizer(testEnc, 16)
	ds := BuildPairDataset(f, pool, 60, 60, 7)
	if len(ds.X) != 120 || len(ds.Y) != 120 {
		t.Fatalf("dataset size %d/%d", len(ds.X), len(ds.Y))
	}
	dim := f.FeatureDim()
	for _, x := range ds.X {
		if len(x) != dim {
			t.Fatalf("feature dim %d want %d", len(x), dim)
		}
	}
	// Positives and negatives must differ in mean DTW-object similarity
	// (feature 1) — the core signal of §III-A1.
	var posMean, negMean float64
	var nPos, nNeg int
	for i, x := range ds.X {
		if ds.Y[i] == 1 {
			posMean += x[1]
			nPos++
		} else {
			negMean += x[1]
			nNeg++
		}
	}
	posMean /= float64(nPos)
	negMean /= float64(nNeg)
	if posMean <= negMean {
		t.Fatalf("correlated pairs should have higher object similarity: %v vs %v",
			posMean, negMean)
	}
}

func TestPoolIndexMatchesOracle(t *testing.T) {
	pool := testPool()[:300]
	ix := NewPoolIndex(pool)
	f := func(seed uint16) bool {
		anchor := pool[int(seed)%len(pool)]
		fwd := map[*rules.Rule]bool{}
		for _, r := range ix.Forward(nil, anchor) {
			fwd[r] = true
		}
		bwd := map[*rules.Rule]bool{}
		for _, r := range backwardRules(ix, anchor) {
			bwd[r] = true
		}
		for _, r := range pool {
			if r == anchor {
				continue
			}
			if (rules.RuleCanTrigger(anchor, r) != rules.NoMatch) != fwd[r] {
				return false
			}
			if (rules.RuleCanTrigger(r, anchor) != rules.NoMatch) != bwd[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestNodeFeatureSignatureCancellation(t *testing.T) {
	b := NewBuilder(3, testEnc)
	mk := func(state string) *rules.Rule {
		d := rules.CatalogByName()["light"]
		var eff rules.Effect
		for _, c := range d.Commands {
			if c.State == state {
				eff = rules.Effect{Device: "light", Room: "kitchen", Verb: c.Verb,
					Channel: c.Channel, State: c.State, Env: c.Env}
			}
		}
		r := &rules.Rule{ID: state, Platform: rules.IFTTT,
			Trigger: rules.Condition{Device: "motion sensor", Room: "kitchen",
				Channel: rules.ChanMotion, State: "detected"},
			Actions: []rules.Effect{eff}}
		r.Description = rules.Describe(rules.IFTTT, r.Trigger, r.Actions)
		return r
	}
	fOn, _ := b.NodeFeature(mk("on"))
	fOff, _ := b.NodeFeature(mk("off"))
	// The action-signature blocks must oppose: summing them cancels.
	start := testEnc.WordDim()
	var sumNorm, onNorm float64
	for i := start; i < start+SigDim; i++ {
		s := fOn[i] + fOff[i]
		sumNorm += s * s
		onNorm += fOn[i] * fOn[i]
	}
	if sumNorm > onNorm*0.5 {
		t.Fatalf("opposite actions should cancel in signature space: sum %v vs on %v",
			sumNorm, onNorm)
	}
}

func TestBuildOnlineFusesLogs(t *testing.T) {
	gen := rules.NewGenerator(3, rules.Archetypes()[4], "t")
	deployed := gen.RuleSet(14)
	log := eventlog.Clean(eventlog.NewSimulator(deployed, 7).Run(2000))
	b := NewBuilder(11, testEnc)
	g := b.BuildOnline(deployed, log)
	if !g.Online {
		t.Fatal("online flag not set")
	}
	if g.N() == 0 {
		t.Fatal("no active rules recovered from the log")
	}
	// Edges require both oracle support and timestamp support.
	for _, e := range g.Edges {
		if rules.RuleCanTrigger(g.Nodes[e.From].Rule, g.Nodes[e.To].Rule) == rules.NoMatch {
			t.Fatal("online edge without oracle support")
		}
	}
	// Empty log → empty graph.
	if b.BuildOnline(deployed, nil).N() != 0 {
		t.Fatal("empty log should produce empty graph")
	}
}

func TestDriftGraphsTagged(t *testing.T) {
	pool := testPool()
	b := NewBuilder(21, testEnc)
	for kind := DriftKind(0); kind < NumDriftKinds; kind++ {
		g := b.OfflineWithDrift(pool, kind, 3)
		found := false
		for _, tag := range g.Tags {
			if strings.HasPrefix(tag, "drift_") {
				found = true
			}
		}
		if !found {
			t.Fatalf("drift kind %d not tagged: %v", kind, g.Tags)
		}
	}
}

func TestOnlineSampleVulnerable(t *testing.T) {
	s := &OnlineSample{Graph: &graph.Graph{}}
	if s.Vulnerable() {
		t.Fatal("benign sample misreported")
	}
	s.Attacked = true
	if !s.Vulnerable() {
		t.Fatal("attacked sample must be vulnerable")
	}
	s2 := &OnlineSample{Graph: &graph.Graph{Label: true}}
	if !s2.Vulnerable() {
		t.Fatal("inherent vulnerability must count")
	}
}

func TestClassifierOraclePipeline(t *testing.T) {
	pool := testPool()
	f := NewPairFeaturizer(testEnc, 16)
	oracle := TrainCorrelationClassifier(f, pool, 150, 220, 7)
	prec, rec := EdgeAgreement(oracle.Oracle(), pool, 120, 11)
	// The classifier sees entity-stripped text, so it over-predicts across
	// rooms (precision suffers) but must recover most true correlations.
	if rec < 0.7 {
		t.Fatalf("classifier oracle recall %v too low", rec)
	}
	if prec <= 0.05 {
		t.Fatalf("classifier oracle precision %v is chance-level", prec)
	}
	// A builder driven by the classifier still produces usable graphs.
	b := NewBuilder(13, testEnc)
	b.Oracle = oracle.Oracle()
	g := b.Offline(pool, 10)
	if g.N() < 2 {
		t.Fatal("classifier-driven builder produced a degenerate graph")
	}
	// The ground-truth oracle agrees with itself perfectly.
	p0, r0 := EdgeAgreement(rules.RuleCanTrigger, pool, 120, 11)
	if p0 != 1 || r0 != 1 {
		t.Fatalf("ground-truth oracle self-agreement %v/%v", p0, r0)
	}
}
