// Package vuln implements the interaction vulnerability model of
// Definition 2: the six vulnerability types identified by iRuler that the
// paper labels against (condition bypass, condition block, action revert,
// action loop, action conflict, action duplicate), a deterministic
// graph-analytic ground-truth labeler, and the three drifting ("novel")
// vulnerability patterns §IV-C discovers in the unlabeled data.
package vuln

import (
	"cmp"
	"slices"
	"sync"

	"fexiot/internal/graph"
	"fexiot/internal/rules"
)

// Type is one of the interaction vulnerability types.
type Type int

// The six labelled vulnerability types (Definition 2), followed by the
// three drifting patterns discovered in §IV-C and the external-attack tag
// used for online graphs.
const (
	ConditionBypass Type = iota
	ConditionBlock
	ActionRevert
	ActionLoop
	ActionConflict
	ActionDuplicate

	// Drifting patterns (not part of the training label space).
	DriftTimedRevert // automation action is reverted over time
	DriftFakeCond    // another action generates fake automation conditions
	DriftManualBlock // non-automation settings block existing actions
	ExternalAttack   // online graph compromised by an injected attack
	numTypes
)

// NumLabeledTypes is the count of the six trainable vulnerability types.
const NumLabeledTypes = 6

// String names the vulnerability type.
func (t Type) String() string {
	names := [...]string{"condition_bypass", "condition_block",
		"action_revert", "action_loop", "action_conflict",
		"action_duplicate", "drift_timed_revert", "drift_fake_condition",
		"drift_manual_block", "external_attack"}
	if int(t) < len(names) {
		return names[t]
	}
	return "unknown"
}

// Finding records one detected vulnerability instance and the nodes
// involved (indices into the graph).
type Finding struct {
	Type  Type
	Nodes []int
}

// Detect runs the six graph-analytic detectors over an interaction graph
// and returns all findings, deterministically ordered by (type, nodes). The
// node lists of the findings share one array.
func Detect(g *graph.Graph) []Finding {
	d := detectors.Get().(*detector)
	defer detectors.Put(d)
	d.load(g)
	d.loop()
	d.pairwise(g)
	if len(d.found) == 0 {
		return nil
	}
	nodes := append([]int(nil), d.nodes...)
	out := make([]Finding, len(d.found))
	for i, f := range d.found {
		out[i] = Finding{Type: f.typ, Nodes: nodes[f.off : f.off+f.n : f.off+f.n]}
	}
	slices.SortFunc(out, func(a, b Finding) int {
		return cmp.Or(cmp.Compare(a.Type, b.Type), slices.Compare(a.Nodes, b.Nodes))
	})
	return out
}

// detector is the working storage of one Detect call, recycled through
// detectors: the graph's adjacency both ways as offsets into flat lists,
// the all-pairs hop matrix, and the findings as spans of one node list.
// Nothing a caller receives points into it.
type detector struct {
	n      int
	outAt  []int // node u's out-neighbours are out[outAt[u]:outAt[u+1]], in edge order
	out    []int
	inAt   []int // node v's parents are in[inAt[v]:inAt[v+1]], in edge order
	in     []int
	dist   []int // dist[u*n+v]: directed hops u→v (-1 unreachable, 0 on the diagonal)
	queue  []int
	color  []uint8 // loop's DFS: white, gray (on the current path), black
	parent []int   // loop's DFS tree (-1: a root)
	nodes  []int
	found  []span
}

const (
	white = iota
	gray
	black
)

// span is one finding: its type and where its nodes are in detector.nodes.
type span struct {
	typ    Type
	off, n int
}

var detectors = sync.Pool{New: func() any { return new(detector) }}

// resized returns s with length n and every element zero, reallocating only
// to grow.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// load reads g's edges into the adjacency lists and fills the hop matrix.
func (d *detector) load(g *graph.Graph) {
	n := g.N()
	d.n = n
	d.nodes, d.found = d.nodes[:0], d.found[:0]
	d.outAt, d.inAt = resized(d.outAt, n+1), resized(d.inAt, n+1)
	d.out, d.in = resized(d.out, len(g.Edges)), resized(d.in, len(g.Edges))
	for _, e := range g.Edges {
		d.outAt[e.From+1]++
		d.inAt[e.To+1]++
	}
	for i := 0; i < n; i++ {
		d.outAt[i+1] += d.outAt[i]
		d.inAt[i+1] += d.inAt[i]
	}
	// Fill through the offsets, which leaves each one slot to the right of
	// where it started; shift them back.
	for _, e := range g.Edges {
		d.out[d.outAt[e.From]] = e.To
		d.outAt[e.From]++
		d.in[d.inAt[e.To]] = e.From
		d.inAt[e.To]++
	}
	copy(d.outAt[1:], d.outAt[:n])
	copy(d.inAt[1:], d.inAt[:n])
	d.outAt[0], d.inAt[0] = 0, 0

	d.dist = resized(d.dist, n*n)
	for i := range d.dist {
		d.dist[i] = -1
	}
	for s := 0; s < n; s++ {
		row := d.dist[s*n : (s+1)*n]
		row[s] = 0
		d.queue = append(d.queue[:0], s)
		for head := 0; head < len(d.queue); head++ {
			cur := d.queue[head]
			for _, next := range d.out[d.outAt[cur]:d.outAt[cur+1]] {
				if row[next] < 0 {
					row[next] = row[cur] + 1
					d.queue = append(d.queue, next)
				}
			}
		}
	}
}

func (d *detector) pair(t Type, u, v int) {
	d.found = append(d.found, span{t, len(d.nodes), 2})
	d.nodes = append(d.nodes, u, v)
}

// loop finds a directed cycle ("action loop": a chain of rules that
// re-triggers itself, like the camera on/off spreadsheet loop of Fig. 8):
// the first one a DFS from the lowest-numbered nodes, following edges in
// edge order, closes.
func (d *detector) loop() {
	d.color, d.parent = resized(d.color, d.n), resized(d.parent, d.n)
	for i := range d.parent {
		d.parent[i] = -1
	}
	for i := 0; i < d.n; i++ {
		if d.color[i] == white && d.closesCycle(i) {
			slices.Sort(d.nodes)
			d.found = append(d.found, span{ActionLoop, 0, len(d.nodes)})
			return
		}
	}
}

// closesCycle searches from u and, at the first edge back into the current
// path, records the cycle's nodes.
func (d *detector) closesCycle(u int) bool {
	d.color[u] = gray
	for _, v := range d.out[d.outAt[u]:d.outAt[u+1]] {
		if d.color[v] == gray {
			// Walk back from u to v collecting the cycle.
			d.nodes = append(d.nodes, v)
			for x := u; x != v && x != -1; x = d.parent[x] {
				d.nodes = append(d.nodes, x)
			}
			return true
		}
		if d.color[v] == white {
			d.parent[v] = u
			if d.closesCycle(v) {
				return true
			}
		}
	}
	d.color[u] = black
	return false
}

// revertMaxHops bounds how long a causal chain still counts as an "action
// revert": the undoing rule must fire within a few steps of the original
// action, mirroring HAWatcher's short-order interference semantics.
const revertMaxHops = 2

// siblings reports whether nodes u and v fire together: they share a
// direct parent or an identical trigger condition.
func (d *detector) siblings(g *graph.Graph, u, v int) bool {
	if g.Nodes[u].Rule.Trigger == g.Nodes[v].Rule.Trigger {
		return true
	}
	for _, pu := range d.in[d.inAt[u]:d.inAt[u+1]] {
		for _, pv := range d.in[d.inAt[v]:d.inAt[v+1]] {
			if pu == pv {
				return true
			}
		}
	}
	return false
}

// pairwise scans rule pairs for the conflict, revert, duplicate, bypass
// and block patterns. Conflict, duplicate and block require *sibling
// activation* — the two rules fire from the same direct parent or share an
// identical trigger condition — which is the simultaneity requirement of
// the underlying iRuler/HAWatcher vulnerability semantics.
func (d *detector) pairwise(g *graph.Graph) {
	n := d.n
	// Condition bypass: an environmental edge into a rule whose action is
	// security-sensitive — the trigger can be satisfied artificially rather
	// than by the genuine environment.
	for _, e := range g.Edges {
		if e.Kind != rules.EnvMatch || g.Nodes[e.From].Rule == nil {
			continue
		}
		if rv := g.Nodes[e.To].Rule; rv != nil && anySensitive(rv) {
			d.pair(ConditionBypass, e.From, e.To)
		}
	}
	for u := 0; u < n; u++ {
		ru := g.Nodes[u].Rule
		if ru == nil {
			continue
		}
		for v := 0; v < n; v++ {
			rv := g.Nodes[v].Rule
			if u == v || rv == nil {
				continue
			}
			uv, vu := d.dist[u*n+v], d.dist[v*n+u]
			// Action revert: a short downstream chain undoes the upstream
			// action.
			if uv > 0 && uv <= revertMaxHops && conflicting(ru, rv) {
				d.pair(ActionRevert, u, v)
			}
			unordered := u < v && uv < 0 && vu < 0
			// uv == 1 is an edge u→v; a node with parents is meant to fire.
			blockable := uv != 1 && d.inAt[v+1] > d.inAt[v]
			if !(unordered || blockable) || !d.siblings(g, u, v) {
				continue
			}
			if unordered {
				// Simultaneous activation of causally unordered siblings.
				if conflicting(ru, rv) {
					d.pair(ActionConflict, u, v)
				}
				if duplicating(ru, rv) {
					d.pair(ActionDuplicate, u, v)
				}
			}
			// Condition block: a sibling's action forces v's trigger false
			// while v is meant to fire.
			if blockable && blocksTrigger(ru, rv) {
				d.pair(ConditionBlock, u, v)
			}
		}
	}
}

func anySensitive(r *rules.Rule) bool {
	for _, eff := range r.Actions {
		if eff.Sensitive {
			return true
		}
	}
	return false
}

func conflicting(a, b *rules.Rule) bool {
	for _, ea := range a.Actions {
		for _, eb := range b.Actions {
			if rules.Conflicts(ea, eb) {
				return true
			}
		}
	}
	return false
}

func duplicating(a, b *rules.Rule) bool {
	for _, ea := range a.Actions {
		for _, eb := range b.Actions {
			if rules.Duplicates(ea, eb) {
				return true
			}
		}
	}
	return false
}

func blocksTrigger(a, b *rules.Rule) bool {
	for _, ea := range a.Actions {
		if rules.Blocks(ea, b.Trigger) {
			return true
		}
	}
	return false
}

// Label applies the detectors to g, setting Label and Tags in place, and
// returns the findings.
func Label(g *graph.Graph) []Finding {
	findings := Detect(g)
	g.Label = len(findings) > 0
	g.Tags = nil
	// Findings are ordered by type: a tag starts where the type changes.
	for i, f := range findings {
		if i == 0 || f.Type != findings[i-1].Type {
			g.Tags = append(g.Tags, f.Type.String())
		}
	}
	return findings
}
