package vuln

import (
	"reflect"
	"testing"

	"fexiot/internal/graph"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
)

func mkRule(id string, trig rules.Condition, acts ...rules.Effect) *rules.Rule {
	return &rules.Rule{ID: id, Trigger: trig, Actions: acts,
		Description: id, Platform: rules.IFTTT}
}

func eff(dev string, ch rules.Channel, state string, env ...rules.EnvDelta) rules.Effect {
	return rules.Effect{Device: dev, Channel: ch, State: state, Env: env, Verb: "set"}
}

func cond(dev string, ch rules.Channel, state string) rules.Condition {
	return rules.Condition{Device: dev, Channel: ch, State: state}
}

// buildGraph wires nodes and adds ground-truth edges.
func buildGraph(rs ...*rules.Rule) *graph.Graph {
	g := &graph.Graph{}
	for _, r := range rs {
		g.AddNode(graph.Node{Rule: r, Feature: []float64{0}})
	}
	for i, a := range rs {
		for j, b := range rs {
			if i != j {
				if k := rules.RuleCanTrigger(a, b); k != rules.NoMatch {
					g.AddEdge(i, j, k)
				}
			}
		}
	}
	return g
}

func hasType(fs []Finding, t Type) bool {
	for _, f := range fs {
		if f.Type == t {
			return true
		}
	}
	return false
}

func TestDetectActionLoop(t *testing.T) {
	a := mkRule("a", cond("fan", rules.ChanPower, "running"),
		eff("humidifier", rules.ChanPower, "on"))
	b := mkRule("b", cond("humidifier", rules.ChanPower, "on"),
		eff("fan", rules.ChanPower, "running"))
	g := buildGraph(a, b)
	fs := Detect(g)
	if !hasType(fs, ActionLoop) {
		t.Fatalf("loop not detected: %v", fs)
	}
}

func TestDetectActionRevert(t *testing.T) {
	// w turns valve on; leak rule downstream turns it off.
	w := mkRule("w", cond("smoke detector", rules.ChanSmoke, "detected"),
		eff("water valve", rules.ChanWaterFlow, "on", rules.EnvDelta{Channel: rules.ChanLeak, Sign: 1}))
	a := mkRule("a", cond("leak sensor", rules.ChanLeak, "wet"),
		eff("water valve", rules.ChanWaterFlow, "off"))
	g := buildGraph(w, a)
	fs := Detect(g)
	if !hasType(fs, ActionRevert) {
		t.Fatalf("revert not detected: %v", fs)
	}
	if hasType(fs, ActionConflict) {
		t.Fatal("causally ordered opposition is a revert, not a conflict")
	}
}

func TestDetectActionConflict(t *testing.T) {
	w := mkRule("w", cond("motion sensor", rules.ChanMotion, "detected"),
		eff("heater", rules.ChanPower, "on"))
	a := mkRule("a", cond("heater", rules.ChanPower, "on"),
		eff("fan", rules.ChanPower, "running"))
	b := mkRule("b", cond("heater", rules.ChanPower, "on"),
		eff("fan", rules.ChanPower, "stopped"))
	g := buildGraph(w, a, b)
	fs := Detect(g)
	if !hasType(fs, ActionConflict) {
		t.Fatalf("conflict not detected: %v", fs)
	}
}

func TestDetectActionDuplicate(t *testing.T) {
	w := mkRule("w", cond("motion sensor", rules.ChanMotion, "detected"),
		eff("light", rules.ChanPower, "on"))
	a := mkRule("a", cond("light", rules.ChanPower, "on"),
		eff("lock", rules.ChanLockState, "locked"))
	b := mkRule("b", cond("light", rules.ChanPower, "on"),
		eff("lock", rules.ChanLockState, "locked"))
	g := buildGraph(w, a, b)
	fs := Detect(g)
	if !hasType(fs, ActionDuplicate) {
		t.Fatalf("duplicate not detected: %v", fs)
	}
}

func TestDetectConditionBypass(t *testing.T) {
	w := mkRule("w", cond("button", rules.ChanButton, "pressed"),
		eff("heater", rules.ChanPower, "on", rules.EnvDelta{Channel: rules.ChanTemperature, Sign: 1}))
	a := mkRule("a", cond("temperature sensor", rules.ChanTemperature, "high"),
		rules.Effect{Device: "window", Channel: rules.ChanContact, State: "open",
			Sensitive: true, Verb: "open"})
	g := buildGraph(w, a)
	fs := Detect(g)
	if !hasType(fs, ConditionBypass) {
		t.Fatalf("bypass not detected: %v", fs)
	}
}

func TestBypassRequiresEnvEdgeAndSensitiveAction(t *testing.T) {
	// Direct (non-environmental) edge into a sensitive rule: not a bypass.
	w := mkRule("w", cond("button", rules.ChanButton, "pressed"),
		eff("lock", rules.ChanLockState, "unlocked"))
	a := mkRule("a", cond("lock", rules.ChanLockState, "unlocked"),
		rules.Effect{Device: "door", Channel: rules.ChanContact, State: "open",
			Sensitive: true, Verb: "open"})
	if hasType(Detect(buildGraph(w, a)), ConditionBypass) {
		t.Fatal("direct edges must not count as bypass")
	}
	// Environmental edge into a benign rule: not a bypass either.
	w2 := mkRule("w2", cond("button", rules.ChanButton, "pressed"),
		eff("heater", rules.ChanPower, "on", rules.EnvDelta{Channel: rules.ChanTemperature, Sign: 1}))
	b := mkRule("b", cond("temperature sensor", rules.ChanTemperature, "high"),
		eff("fan", rules.ChanPower, "running"))
	if hasType(Detect(buildGraph(w2, b)), ConditionBypass) {
		t.Fatal("benign actions must not count as bypass")
	}
}

func TestDetectConditionBlock(t *testing.T) {
	a := mkRule("a", cond("motion sensor", rules.ChanMotion, "detected"),
		eff("heater", rules.ChanPower, "on", rules.EnvDelta{Channel: rules.ChanTemperature, Sign: 1}))
	u := mkRule("u", cond("heater", rules.ChanPower, "on"),
		eff("air conditioner", rules.ChanPower, "on", rules.EnvDelta{Channel: rules.ChanTemperature, Sign: -1}))
	v := mkRule("v", cond("temperature sensor", rules.ChanTemperature, "high"),
		eff("fan", rules.ChanPower, "running"))
	g := buildGraph(a, u, v)
	fs := Detect(g)
	if !hasType(fs, ConditionBlock) {
		t.Fatalf("block not detected: %v", fs)
	}
}

func TestBenignGraphHasNoFindings(t *testing.T) {
	// Simple unrelated chain: motion → light; door open → notify-ish action.
	a := mkRule("a", cond("motion sensor", rules.ChanMotion, "detected"),
		eff("light", rules.ChanPower, "on", rules.EnvDelta{Channel: rules.ChanIlluminance, Sign: 1}))
	b := mkRule("b", cond("light", rules.ChanPower, "on"),
		eff("camera", rules.ChanPower, "on"))
	g := buildGraph(a, b)
	if fs := Detect(g); len(fs) != 0 {
		t.Fatalf("benign graph flagged: %v", fs)
	}
	Label(g)
	if g.Label || len(g.Tags) != 0 {
		t.Fatal("benign label wrong")
	}
}

func TestLabelSetsTags(t *testing.T) {
	a := mkRule("a", cond("fan", rules.ChanPower, "running"),
		eff("humidifier", rules.ChanPower, "on"))
	b := mkRule("b", cond("humidifier", rules.ChanPower, "on"),
		eff("fan", rules.ChanPower, "running"))
	g := buildGraph(a, b)
	fs := Label(g)
	if !g.Label || len(fs) == 0 {
		t.Fatal("vulnerable graph not labelled")
	}
	if len(g.Tags) == 0 || g.Tags[0] != "action_loop" {
		t.Fatalf("tags = %v", g.Tags)
	}
}

func TestDetectDeterministicOrder(t *testing.T) {
	w := mkRule("w", cond("motion sensor", rules.ChanMotion, "detected"),
		eff("heater", rules.ChanPower, "on"))
	a := mkRule("a", cond("heater", rules.ChanPower, "on"),
		eff("fan", rules.ChanPower, "running"))
	b := mkRule("b", cond("heater", rules.ChanPower, "on"),
		eff("fan", rules.ChanPower, "stopped"))
	g := buildGraph(w, a, b)
	f1 := Detect(g)
	f2 := Detect(g)
	if len(f1) != len(f2) {
		t.Fatal("nondeterministic findings")
	}
	for i := range f1 {
		if f1[i].Type != f2[i].Type {
			t.Fatal("nondeterministic order")
		}
	}
}

func TestTypeStrings(t *testing.T) {
	for ty := Type(0); ty < numTypes; ty++ {
		if ty.String() == "unknown" || ty.String() == "" {
			t.Errorf("type %d unnamed", ty)
		}
	}
	if NumLabeledTypes != 6 {
		t.Fatal("the paper defines six labelled types")
	}
}

// TestLabelMatchesReference compares the flat-buffer detectors with the
// reference ones on random graphs: nodes drawn with repetition from two
// generated homes (so rules share triggers, one rule sits at two nodes),
// the odd node with no rule (an online anomaly), random edges of both
// kinds including self-loops and cycles, then the oracle's own edges on
// top. The detector pool is shared, so graphs of different sizes follow
// each other through the same buffers.
func TestLabelMatchesReference(t *testing.T) {
	r := rng.New(5)
	var home []*rules.Rule
	for i, a := range rules.Archetypes()[:2] {
		home = append(home, rules.NewGenerator(int64(40+i), a, "v-").RuleSet(30)...)
	}
	seen := map[Type]int{}
	cyclic, labelled := 0, 0
	for trial := 0; trial < 400; trial++ {
		g := &graph.Graph{}
		n := 1 + r.Intn(14)
		for i := 0; i < n; i++ {
			node := graph.Node{Rule: rng.Pick(r, home), Feature: []float64{0}}
			if r.Bool(0.05) {
				node.Rule = nil
			}
			g.AddNode(node)
		}
		for k := r.Intn(2 * n); k > 0; k-- {
			kind := rules.DirectMatch
			if r.Bool(0.4) {
				kind = rules.EnvMatch
			}
			g.AddEdge(r.Intn(n), r.Intn(n), kind)
		}
		if trial%2 == 0 {
			for i, a := range g.Nodes {
				for j, b := range g.Nodes {
					if i != j && a.Rule != nil && b.Rule != nil {
						if k := rules.RuleCanTrigger(a.Rule, b.Rule); k != rules.NoMatch {
							g.AddEdge(i, j, k)
						}
					}
				}
			}
		}
		ref := cloneGraph(g)
		want, got := refLabel(ref), Label(g)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d nodes, %d edges): findings\n got %v\nwant %v", trial, n, len(g.Edges), got, want)
		}
		if g.Label != ref.Label || !reflect.DeepEqual(g.Tags, ref.Tags) {
			t.Fatalf("trial %d: label %v tags %v, want %v %v", trial, g.Label, g.Tags, ref.Label, ref.Tags)
		}
		if again := Detect(g); !reflect.DeepEqual(again, want) {
			t.Fatalf("trial %d: Detect after Label differs: %v", trial, again)
		}
		for _, f := range want {
			seen[f.Type]++
		}
		if g.HasCycle() {
			cyclic++
		}
		if g.Label {
			labelled++
		}
	}
	for ty := Type(0); ty < NumLabeledTypes; ty++ {
		if seen[ty] == 0 {
			t.Errorf("no trial produced a %v finding: the comparison never exercised it", ty)
		}
	}
	if cyclic < 20 || labelled == 400 {
		t.Errorf("%d cyclic and %d labelled graphs of 400: the corpus is lopsided", cyclic, labelled)
	}
}

// cloneGraph deep-copies g for the reference labeller (rules are shared,
// features and tags copied, structural caches not carried over), so Label's
// writes to g cannot reach the oracle's input.
func cloneGraph(g *graph.Graph) *graph.Graph {
	out := &graph.Graph{ID: g.ID, Label: g.Label, Online: g.Online,
		Tags: append([]string(nil), g.Tags...)}
	for _, n := range g.Nodes {
		out.Nodes = append(out.Nodes, graph.Node{
			Rule:    n.Rule,
			Feature: append([]float64(nil), n.Feature...),
			Space:   n.Space,
		})
	}
	out.Edges = append(out.Edges, g.Edges...)
	return out
}
