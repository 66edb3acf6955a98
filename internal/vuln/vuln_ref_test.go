package vuln

import (
	"sort"

	"fexiot/internal/graph"
	"fexiot/internal/rules"
)

// The detectors of commit 71646be, kept verbatim (renamed ref…) as the
// oracle the flat-buffer pass in vuln.go is compared against: an edge map,
// a parents slice per node, a BFS row and queue per source, a node slice
// per finding and a map per Label call are all still here.

// refDetect runs the six graph-analytic detectors over an interaction graph
// and returns all findings, deterministically ordered by (type, nodes).
func refDetect(g *graph.Graph) []Finding {
	var out []Finding
	out = append(out, refDetectLoop(g)...)
	out = append(out, refDetectPairwise(g)...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Type != out[j].Type {
			return out[i].Type < out[j].Type
		}
		return lessIntSlice(out[i].Nodes, out[j].Nodes)
	})
	return out
}

func lessIntSlice(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// refDetectLoop finds directed cycles ("action loop": a chain of rules that
// re-triggers itself, like the camera on/off spreadsheet loop of Fig. 8).
func refDetectLoop(g *graph.Graph) []Finding {
	if !g.HasCycle() {
		return nil
	}
	// Report the nodes on some cycle via DFS back-edge capture.
	const (
		white = 0
		gray  = 1
		black = 2
	)
	color := make([]int, g.N())
	parent := make([]int, g.N())
	for i := range parent {
		parent[i] = -1
	}
	var cyc []int
	var dfs func(int) bool
	dfs = func(u int) bool {
		color[u] = gray
		for _, v := range g.Out(u) {
			if color[v] == gray {
				// Walk back from u to v collecting the cycle.
				cyc = append(cyc, v)
				for x := u; x != v && x != -1; x = parent[x] {
					cyc = append(cyc, x)
				}
				return true
			}
			if color[v] == white {
				parent[v] = u
				if dfs(v) {
					return true
				}
			}
		}
		color[u] = black
		return false
	}
	for i := 0; i < g.N(); i++ {
		if color[i] == white && dfs(i) {
			break
		}
	}
	sort.Ints(cyc)
	return []Finding{{Type: ActionLoop, Nodes: cyc}}
}

// refDetectPairwise scans rule pairs for the conflict, revert, duplicate,
// bypass and block patterns. Conflict, duplicate and block require
// *sibling activation* — the two rules fire from the same direct parent or
// share an identical trigger condition — which is the simultaneity
// requirement of the underlying iRuler/HAWatcher vulnerability semantics.
func refDetectPairwise(g *graph.Graph) []Finding {
	var out []Finding
	n := g.N()
	hasEdge := make(map[[2]int]bool, len(g.Edges))
	inDeg := make([]int, n)
	parents := make([][]int, n)
	for _, e := range g.Edges {
		hasEdge[[2]int{e.From, e.To}] = true
		inDeg[e.To]++
		parents[e.To] = append(parents[e.To], e.From)
	}
	dist := refHopDistances(g)
	siblings := func(u, v int) bool {
		ru, rv := g.Nodes[u].Rule, g.Nodes[v].Rule
		if ru.Trigger == rv.Trigger {
			return true
		}
		for _, pu := range parents[u] {
			for _, pv := range parents[v] {
				if pu == pv {
					return true
				}
			}
		}
		return false
	}
	for u := 0; u < n; u++ {
		ru := g.Nodes[u].Rule
		if ru == nil {
			continue
		}
		// Condition bypass: an environmental edge into a rule whose action
		// is security-sensitive — the trigger can be satisfied artificially
		// rather than by the genuine environment.
		for _, e := range g.Edges {
			if e.From != u || e.Kind != rules.EnvMatch {
				continue
			}
			rv := g.Nodes[e.To].Rule
			if rv == nil {
				continue
			}
			for _, eff := range rv.Actions {
				if eff.Sensitive {
					out = append(out, Finding{Type: ConditionBypass,
						Nodes: []int{u, e.To}})
					break
				}
			}
		}
		for v := 0; v < n; v++ {
			if u == v {
				continue
			}
			rv := g.Nodes[v].Rule
			if rv == nil {
				continue
			}
			// Action revert: a short downstream chain undoes the upstream
			// action.
			if d := dist[u][v]; d > 0 && d <= revertMaxHops {
				if conflicting(ru, rv) {
					out = append(out, Finding{Type: ActionRevert,
						Nodes: []int{u, v}})
				}
			}
			if u < v && siblings(u, v) && dist[u][v] < 0 && dist[v][u] < 0 {
				// Simultaneous activation of causally unordered siblings.
				if conflicting(ru, rv) {
					out = append(out, Finding{Type: ActionConflict,
						Nodes: []int{u, v}})
				}
				if duplicating(ru, rv) {
					out = append(out, Finding{Type: ActionDuplicate,
						Nodes: []int{u, v}})
				}
			}
			// Condition block: a sibling's action forces v's trigger false
			// while v is meant to fire (in-degree > 0).
			if siblings(u, v) && !hasEdge[[2]int{u, v}] && inDeg[v] > 0 &&
				blocksTrigger(ru, rv) {
				out = append(out, Finding{Type: ConditionBlock,
					Nodes: []int{u, v}})
			}
		}
	}
	return out
}

// refHopDistances returns the directed BFS hop count between all node pairs
// (-1 when unreachable; 0 on the diagonal).
func refHopDistances(g *graph.Graph) [][]int {
	n := g.N()
	adj := make([][]int, n)
	for _, e := range g.Edges {
		adj[e.From] = append(adj[e.From], e.To)
	}
	dist := make([][]int, n)
	for s := 0; s < n; s++ {
		row := make([]int, n)
		for i := range row {
			row[i] = -1
		}
		row[s] = 0
		queue := []int{s}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, next := range adj[cur] {
				if row[next] < 0 {
					row[next] = row[cur] + 1
					queue = append(queue, next)
				}
			}
		}
		dist[s] = row
	}
	return dist
}

// refLabel applies the detectors to g, setting Label and Tags in place, and
// returns the findings.
func refLabel(g *graph.Graph) []Finding {
	findings := refDetect(g)
	g.Label = len(findings) > 0
	seen := map[string]bool{}
	g.Tags = nil
	for _, f := range findings {
		name := f.Type.String()
		if !seen[name] {
			seen[name] = true
			g.Tags = append(g.Tags, name)
		}
	}
	return findings
}
