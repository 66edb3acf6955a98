package fusion

import (
	"fmt"
	"sort"

	"fexiot/internal/embed"
	"fexiot/internal/eventlog"
	"fexiot/internal/graph"
	"fexiot/internal/rules"
	"fexiot/internal/vuln"
)

// The online fusion of commit bce5ada, kept verbatim (receiver renamed to a
// parameter, the never-read byID map dropped) as the oracle the indexed
// pass in online.go is compared against: every events × rules scan and
// both quadratic existence checks are still here.

func refBuildOnline(b *Builder, deployed []*rules.Rule, log eventlog.Log) *graph.Graph {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.nextID++
	g := &graph.Graph{ID: fmt.Sprintf("on%d", b.nextID), Online: true}

	// Execution times per rule (from command records) and trigger-match
	// times per rule (from any record matching the trigger condition).
	execTimes := map[string][]int64{}
	trigTimes := map[*rules.Rule][]int64{}
	for _, e := range log {
		if e.RuleID != "" && e.Kind == eventlog.KindCommand {
			execTimes[e.RuleID] = append(execTimes[e.RuleID], e.Time)
		}
		for _, r := range deployed {
			t := r.Trigger
			if t.Device == e.Device && t.Room == e.Room &&
				t.Channel == e.Channel && t.State == e.Value {
				trigTimes[r] = append(trigTimes[r], e.Time)
			}
		}
	}

	// Active rules appear as nodes.
	var members []*rules.Rule
	for _, r := range deployed {
		if len(execTimes[r.ID]) > 0 || len(trigTimes[r]) > 0 {
			members = append(members, r)
		}
	}
	if len(members) == 0 {
		return g
	}
	idx := map[*rules.Rule]int{}
	for i, r := range members {
		feat, space := b.NodeFeature(r)
		g.AddNode(graph.Node{Rule: r, Feature: feat, Space: space})
		idx[r] = i
	}

	// Edges: the offline logic must allow a→b AND the log must show an
	// execution of a shortly before a trigger match of b.
	for _, a := range members {
		for _, c := range members {
			if a == c {
				continue
			}
			kind := b.Oracle(a, c)
			if kind == rules.NoMatch {
				continue
			}
			if refTimestampsSupport(execTimes[a.ID], trigTimes[c]) {
				g.AddEdge(idx[a], idx[c], kind)
			}
		}
	}

	refAddAnomalyNodes(b, g, members, idx, log)
	vuln.Label(g)
	return g
}

func refAddAnomalyNodes(b *Builder, g *graph.Graph, members []*rules.Rule,
	idx map[*rules.Rule]int, log eventlog.Log) {
	type instKey struct {
		dev, room string
	}
	// Commands present at time t for an instance (to explain states).
	cmdAt := map[instKey][]int64{}
	for _, e := range log {
		if e.Kind == eventlog.KindCommand {
			k := instKey{e.Device, e.Room}
			cmdAt[k] = append(cmdAt[k], e.Time)
		}
	}
	anomalous := map[instKey]string{}
	for _, e := range log {
		k := instKey{e.Device, e.Room}
		switch e.Kind {
		case eventlog.KindCommand:
			if e.RuleID == "" {
				anomalous[k] = "unexplained command"
			}
		case eventlog.KindState:
			explained := false
			for _, t := range cmdAt[k] {
				if e.Time-t >= 0 && e.Time-t <= 2 {
					explained = true
					break
				}
			}
			if !explained {
				anomalous[k] = "unexplained state change"
			}
		}
	}
	// Map iteration order is randomised; anomaly nodes must land in a fixed
	// order or the same log fuses into byte-different graphs across calls.
	keys := make([]instKey, 0, len(anomalous))
	for k := range anomalous {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].room != keys[j].room {
			return keys[i].room < keys[j].room
		}
		return keys[i].dev < keys[j].dev
	})
	for _, k := range keys {
		kind := anomalous[k]
		feat := make([]float64, 0, b.Encoder.WordDim()+2*SigDim)
		feat = append(feat, b.Encoder.RuleEmbedding(
			kind+" of the "+k.room+" "+k.dev)...)
		sig := make([]float64, SigDim)
		axpy(sig, embed.HashVector("anomaly:"+k.room+"|"+k.dev, SigDim), 1)
		feat = append(feat, sig...)
		feat = append(feat, make([]float64, SigDim)...)
		node := g.AddNode(graph.Node{Feature: feat, Space: graph.WordSpace})
		// Wire to every rule referencing the instance.
		for _, r := range members {
			touches := r.Trigger.Device == k.dev && r.Trigger.Room == k.room
			for _, a := range r.Actions {
				if a.Device == k.dev && a.Room == k.room {
					touches = true
				}
			}
			if touches {
				g.AddEdge(node, idx[r], rules.EnvMatch)
			}
		}
	}
	g.InvalidateCache()
}

func refTimestampsSupport(exec, trig []int64) bool {
	for _, te := range exec {
		for _, tt := range trig {
			if tt >= te && tt-te <= TriggerWindow {
				return true
			}
		}
	}
	return false
}
