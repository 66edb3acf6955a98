package fusion

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fexiot/internal/eventlog"
	"fexiot/internal/graph"
	"fexiot/internal/rng"
	"fexiot/internal/rules"
)

// busyHome is the ledger fixture for online fusion: a 25-rule home and the
// newest n events of its fake-command-injected, cleaned log — the shape of
// a full streaming window (n = 4096) and of a detect-with-events body
// (n = 512).
func busyHome(tb testing.TB, n int) ([]*rules.Rule, eventlog.Log) {
	tb.Helper()
	deployed := rules.NewGenerator(1, rules.Archetypes()[0], "h-").RuleSet(25)
	raw := eventlog.NewSimulator(deployed, 1).Run(3600)
	raw = eventlog.Inject(raw, eventlog.FakeCommands, deployed, 0.6, 2)
	log := eventlog.Clean(raw)
	if len(log) < n {
		tb.Fatalf("fixture home logged %d events, want ≥ %d", len(log), n)
	}
	return deployed, log[len(log)-n:]
}

var sinkGraph *graph.Graph

func BenchmarkBuildOnline(b *testing.B) {
	for _, n := range []int{512, 4096} {
		b.Run(fmt.Sprintf("events=%d", n), func(b *testing.B) {
			deployed, log := busyHome(b, n)
			bld := NewBuilder(7, testEnc)
			bld.BuildOnline(deployed, log) // warm the feature cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkGraph = bld.BuildOnline(deployed, log)
			}
		})
	}
}

// sameGraph compares everything a fused graph exposes.
func sameGraph(got, want *graph.Graph) error {
	switch {
	case got.ID != want.ID:
		return fmt.Errorf("ID %q, want %q", got.ID, want.ID)
	case got.Online != want.Online:
		return fmt.Errorf("Online %v, want %v", got.Online, want.Online)
	case !reflect.DeepEqual(got.Nodes, want.Nodes):
		return fmt.Errorf("nodes differ (%d vs %d)", len(got.Nodes), len(want.Nodes))
	case !reflect.DeepEqual(got.Edges, want.Edges):
		return fmt.Errorf("edges differ: %v, want %v", got.Edges, want.Edges)
	case got.Label != want.Label:
		return fmt.Errorf("Label %v, want %v", got.Label, want.Label)
	case !reflect.DeepEqual(got.Tags, want.Tags):
		return fmt.Errorf("Tags %v, want %v", got.Tags, want.Tags)
	}
	return nil
}

// refPair is two builders in lockstep — same seed, same encoder, so graph
// IDs agree — one fusing with BuildOnline, the other with the reference.
type refPair struct{ got, want *Builder }

func newRefPair() refPair {
	return refPair{NewBuilder(7, testEnc), NewBuilder(7, testEnc)}
}

func (p refPair) check(deployed []*rules.Rule, log eventlog.Log) (*graph.Graph, error) {
	before := append(eventlog.Log(nil), log...)
	got := p.got.BuildOnline(deployed, log)
	if !reflect.DeepEqual(log, before) {
		return got, fmt.Errorf("BuildOnline mutated its log")
	}
	return got, sameGraph(got, refBuildOnline(p.want, deployed, log))
}

func shuffled(log eventlog.Log, seed int64) eventlog.Log {
	out := append(eventlog.Log(nil), log...)
	r := rng.New(seed)
	for i := len(out) - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		out[i], out[j] = out[j], out[i]
	}
	return out
}

// TestBuildOnlineMatchesReference holds the indexed pass to the parent's
// function on every input shape the two could disagree on.
func TestBuildOnlineMatchesReference(t *testing.T) {
	p := newRefPair()
	archs := rules.Archetypes()
	nodes, edges, anomalies := 0, 0, 0
	for h := 0; h < 30; h++ {
		seed := int64(100 + h)
		deployed := rules.NewGenerator(seed, archs[h%len(archs)], fmt.Sprintf("h%d-", h)).RuleSet(8 + h%18)
		clean := eventlog.Clean(eventlog.NewSimulator(deployed, seed).Run(600 + int64(h%4)*300))

		type variant struct {
			name     string
			deployed []*rules.Rule
			log      eventlog.Log
		}
		vs := []variant{{"clean", deployed, clean}}
		for a := eventlog.Attack(0); a < eventlog.NumAttacks; a++ {
			vs = append(vs, variant{a.String(), deployed, eventlog.Inject(clean, a, deployed, 0.5, seed+int64(a))})
		}
		attacked := vs[1+int(eventlog.FakeCommands)].log
		vs = append(vs, variant{"shuffled", deployed, shuffled(attacked, seed)})

		var doubled eventlog.Log
		for _, e := range attacked {
			doubled = append(doubled, e, e)
		}
		vs = append(vs, variant{"every event duplicated", deployed, doubled})

		twin := *deployed[1]
		twin.ID = deployed[0].ID
		sharedID := append([]*rules.Rule{}, deployed...)
		sharedID[1] = &twin
		vs = append(vs, variant{"two rules share an ID", sharedID, attacked})

		listedTwice := append(append([]*rules.Rule{}, deployed...), deployed[0], deployed[len(deployed)/2])
		vs = append(vs, variant{"same rule listed twice", listedTwice, attacked})

		ghost := append(eventlog.Log(nil), attacked...)
		for i := range ghost {
			if ghost[i].Kind == eventlog.KindCommand && i%3 == 0 {
				ghost[i].RuleID = "undeployed-rule"
			}
		}
		vs = append(vs, variant{"undeployed rule ID", deployed, ghost})
		vs = append(vs, variant{"empty log", deployed, nil})

		var idle eventlog.Log
		for i := 0; i < 20; i++ {
			idle = append(idle, eventlog.Event{Time: int64(i), Device: "orrery", Room: "attic",
				Channel: rules.ChanPower, Value: "on", Kind: eventlog.EventKind(i % 4)})
		}
		vs = append(vs, variant{"no rule active", deployed, idle})

		for _, v := range vs {
			g, err := p.check(v.deployed, v.log)
			if err != nil {
				t.Fatalf("home %d, %s: %v", h, v.name, err)
			}
			edges += len(g.Edges)
			for _, n := range g.Nodes {
				if n.Rule == nil {
					anomalies++
				} else {
					nodes++
				}
			}
		}
	}
	// The comparison means nothing on empty graphs.
	if nodes < 1000 || edges < 500 || anomalies < 100 {
		t.Fatalf("fixture too quiet: %d rule nodes, %d edges, %d anomaly nodes", nodes, edges, anomalies)
	}

	// Simulated logs rarely sit exactly on a window's edge. Short random
	// logs over one instance and a handful of times that straddle both
	// windows (2 s, TriggerWindow) do, in every order; the third rule has
	// no ID, so no command may count as its execution.
	deployed, _ := adversarialLog(0)
	anon := *deployed[1]
	anon.ID = ""
	deployed = append(deployed, &anon)
	times := []int64{0, 1, 2, 3, TriggerWindow - 1, TriggerWindow, TriggerWindow + 1, TriggerWindow + 2, TriggerWindow + 3}
	r := rng.New(9)
	for i := 0; i < 4000; i++ {
		log := make(eventlog.Log, 2+r.Intn(5))
		for j := range log {
			log[j] = eventlog.Event{Time: rng.Pick(r, times), Device: "light", Room: "hall",
				Channel: rules.ChanPower, Value: rng.Pick(r, []string{"on", "off"}),
				Kind:   rng.Pick(r, []eventlog.EventKind{eventlog.KindCommand, eventlog.KindState}),
				RuleID: rng.Pick(r, []string{"a", "a", "c", ""})}
		}
		if _, err := p.check(deployed, log); err != nil {
			t.Fatalf("boundary log %d %v: %v", i, log, err)
		}
	}
}

// TestBuildOnlineDuplicatedLogSameGraph is the fusion half of the stream
// contract for retried batches: ingest does not dedupe, so a batch sent
// twice re-fuses — into the same nodes and edges, because fusion asks
// whether events exist, not how many.
func TestBuildOnlineDuplicatedLogSameGraph(t *testing.T) {
	deployed, log := busyHome(t, 512)
	var doubled eventlog.Log
	for _, e := range log {
		doubled = append(doubled, e, e)
	}
	b := NewBuilder(7, testEnc)
	want, got := b.BuildOnline(deployed, log), b.BuildOnline(deployed, doubled)
	got.ID = want.ID
	if err := sameGraph(got, want); err != nil {
		t.Fatalf("a log with every event twice fused differently: %v", err)
	}
}

// FuzzBuildOnline perturbs a real log three bytes at a time — which event,
// what to do to it, by how much — and holds the result to the reference.
func FuzzBuildOnline(f *testing.F) {
	deployed := rules.NewGenerator(5, rules.Archetypes()[2], "f-").RuleSet(12)
	base := eventlog.Inject(eventlog.Clean(eventlog.NewSimulator(deployed, 5).Run(400)),
		eventlog.FakeCommands, deployed, 0.5, 6)
	if len(base) < 100 {
		f.Fatalf("fuzz base log has only %d events", len(base))
	}
	f.Add([]byte{})
	f.Add([]byte{0, 10, 200, 1, 20, 2, 2, 30, 0, 3, 40, 50})
	f.Add([]byte{3, 0, 255, 3, 1, 254, 3, 2, 253, 0, 3, 130, 0, 4, 120})
	f.Add([]byte{1, 7, 1, 1, 8, 2, 1, 9, 3, 2, 7, 0, 2, 8, 0, 0, 9, 128})
	f.Fuzz(func(t *testing.T, data []byte) {
		log := append(eventlog.Log(nil), base...)
		for ; len(data) >= 3; data = data[3:] {
			i, arg := int(data[1])%len(log), data[2]
			switch data[0] % 4 {
			case 0: // time jitter, either way
				log[i].Time += int64(int8(arg))
			case 1: // kind flip
				log[i].Kind = eventlog.EventKind(arg % 4)
			case 2: // rule-ID blanking
				log[i].RuleID = ""
			case 3: // swap with another event
				j := int(arg) % len(log)
				log[i], log[j] = log[j], log[i]
			}
		}
		if _, err := newRefPair().check(deployed, log); err != nil {
			t.Fatal(err)
		}
	})
}

// adversarialLog is the body both quadratic checks were slowest on: n/2
// state changes matching rule c's trigger, then n/2 commands of rule a on
// the same instance. The oracle allows a→c but no execution is ever
// followed by a trigger match, and no state change has a command at most
// 2 s before it — each check ran to the end of the other list every time.
func adversarialLog(n int) ([]*rules.Rule, eventlog.Log) {
	a := &rules.Rule{ID: "a", Description: "when motion is detected turn on the light",
		Trigger: rules.Condition{Device: "motion sensor", Room: "hall", Channel: rules.ChanMotion, State: "detected"},
		Actions: []rules.Effect{{Device: "light", Room: "hall", Verb: "turn on", Channel: rules.ChanPower, State: "on"}}}
	c := &rules.Rule{ID: "c", Description: "when the light turns on start the fan",
		Trigger: rules.Condition{Device: "light", Room: "hall", Channel: rules.ChanPower, State: "on"},
		Actions: []rules.Effect{{Device: "fan", Room: "hall", Verb: "turn on", Channel: rules.ChanPower, State: "on"}}}
	log := make(eventlog.Log, 0, n)
	for i := 0; i < n/2; i++ {
		log = append(log, eventlog.Event{Time: int64(i), Device: "light", Room: "hall",
			Channel: rules.ChanPower, Value: "on", Kind: eventlog.KindState})
	}
	for i := n / 2; i < n; i++ {
		log = append(log, eventlog.Event{Time: int64(i) + 10, Device: "light", Room: "hall",
			Channel: rules.ChanPower, Value: "off", Kind: eventlog.KindCommand, RuleID: "a"})
	}
	return []*rules.Rule{a, c}, log
}

// TestBuildOnlineAdversarialScalesLinearly pins the robustness fix: fusing
// runs while other requests wait for their turn on the same core, so a
// crafted body must not buy quadratic time. 8× the events may cost 16× the
// time (a generous linear bound); the nested loops this replaces cost ≈ 64×.
func TestBuildOnlineAdversarialScalesLinearly(t *testing.T) {
	if rs, _ := adversarialLog(0); rules.RuleCanTrigger(rs[0], rs[1]) == rules.NoMatch {
		t.Fatal("fixture: the oracle must allow a→c")
	}
	fuse := func(n int) time.Duration {
		deployed, log := adversarialLog(n)
		b := NewBuilder(7, testEnc)
		if g := b.BuildOnline(deployed, log); g.N() < 2 {
			t.Fatalf("adversarial log fused into %d nodes, want both rules", g.N())
		}
		best := time.Duration(1 << 62)
		for i := 0; i < 5; i++ {
			start := time.Now()
			sinkGraph = b.BuildOnline(deployed, log)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best
	}
	small, large := fuse(2000), fuse(16000)
	t.Logf("2,000 events: %v; 16,000 events: %v (%.1f×)", small, large, float64(large)/float64(small))
	if large > 16*small {
		t.Fatalf("fuse time grew %.1f× for 8× the events (%v → %v): online fusion is superlinear again",
			float64(large)/float64(small), small, large)
	}
}

// TestBuildOnlineConcurrent fuses the same inputs from 8 goroutines at
// once: BuildOnline holds the builder lock only to draw an ID, so under
// -race this is what proves the rest shares nothing unsynchronised, and
// every graph must equal the serial one but for its ID.
func TestBuildOnlineConcurrent(t *testing.T) {
	deployed, log := busyHome(t, 512)
	b := NewBuilder(7, testEnc)
	want := b.BuildOnline(deployed, log)
	const workers, rounds = 8, 4
	graphs := make([][]*graph.Graph, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				graphs[w] = append(graphs[w], b.BuildOnline(deployed, log))
			}
		}(w)
	}
	wg.Wait()
	ids := map[string]bool{want.ID: true}
	for _, gs := range graphs {
		for _, g := range gs {
			if ids[g.ID] {
				t.Fatalf("graph ID %q drawn twice", g.ID)
			}
			ids[g.ID] = true
			g.ID = want.ID
			if err := sameGraph(g, want); err != nil {
				t.Fatalf("concurrent fuse differs from the serial one: %v", err)
			}
		}
	}
}

// TestBuildOnlineAllocCeiling is the hard half of the ledger rows. The log
// index — everything BuildOnline does per event — allocates per rule and
// per instance, never per event: its lists are counted, then carved from
// one array. The whole warmed fuse of a full window, 848 allocations at
// commit bce5ada on this fixture, must stay under 530; what is left is
// vuln.Label (≈ 225) and the anomaly nodes' text embeddings (≈ 95), which
// do not depend on the log's length.
func TestBuildOnlineAllocCeiling(t *testing.T) {
	index := func(n int) float64 {
		deployed, log := busyHome(t, n)
		return testing.AllocsPerRun(20, func() {
			ix := newLogIndex(deployed)
			ix.count(log)
			ix.fill(log)
			ix.anomalies(log)
		})
	}
	small, full := index(512), index(4096)
	t.Logf("log index: %.0f allocs at 512 events, %.0f at 4,096", small, full)
	if full > small+4 || full > 48 {
		t.Fatalf("log index allocates %.0f times at 4,096 events and %.0f at 512: it must not grow with the log (ceiling 48)",
			full, small)
	}

	deployed, log := busyHome(t, 4096)
	b := NewBuilder(7, testEnc)
	b.BuildOnline(deployed, log)
	allocs := testing.AllocsPerRun(20, func() { sinkGraph = b.BuildOnline(deployed, log) })
	t.Logf("%.0f allocs per warmed 4,096-event fuse", allocs)
	if allocs > 530 {
		t.Fatalf("%.0f allocs per fuse, ceiling 530", allocs)
	}
}
