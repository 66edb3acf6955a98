package fusion

import (
	"cmp"
	"fmt"
	"slices"

	"fexiot/internal/eventlog"
	"fexiot/internal/graph"
	"fexiot/internal/rules"
	"fexiot/internal/vuln"
)

// TriggerWindow is how long (simulated seconds) after an action a matching
// trigger event still counts as caused by it when fusing logs into online
// graphs.
const TriggerWindow = 120

// BuildOnline fuses a cleaned event log with the deployed rules into an
// online interaction graph (§III-A3): the offline trigger-action logic
// supplies candidate edges, while the log decides which rules actually ran
// and whether the timestamps support the causal direction. The result is
// the "fine-grained real-time interaction graph" of the paper.
//
// The log is lent: it is neither mutated nor retained, and need not be
// sorted. Only the graph ID is drawn under the builder lock — the rest
// reads the rules and the log, and goes through NodeFeature, the Encoder
// and the Oracle, which are safe for concurrent use — so concurrent fuses
// do not queue behind each other or behind Offline.
func (b *Builder) BuildOnline(deployed []*rules.Rule, log eventlog.Log) *graph.Graph {
	b.mu.Lock()
	b.nextID++
	id := b.nextID
	b.mu.Unlock()
	g := &graph.Graph{ID: fmt.Sprintf("on%d", id), Online: true}

	ix := newLogIndex(deployed)
	ix.count(log)

	// Active rules — executed or triggered at least once — appear as nodes.
	members := make([]int, 0, len(deployed)) // positions in deployed
	for i := range deployed {
		if ix.nExec[ix.slot[i]] > 0 || ix.nTrig[i] > 0 {
			members = append(members, i)
		}
	}
	if len(members) == 0 {
		return g
	}
	ix.fill(log)

	// A rule listed twice is two nodes; its edges go to the later one.
	g.Nodes = make([]graph.Node, 0, len(members))
	idx := make(map[*rules.Rule]int, len(members))
	for i, m := range members {
		r := deployed[m]
		feat, space := b.NodeFeature(r)
		g.AddNode(graph.Node{Rule: r, Feature: feat, Space: space})
		idx[r] = i
	}

	// Edges: the offline logic must allow a→c AND the log must show an
	// execution of a shortly before a trigger match of c.
	for _, ma := range members {
		a, exec := deployed[ma], ix.exec[ix.slot[ma]]
		if len(exec) == 0 {
			continue
		}
		for _, mc := range members {
			c, trig := deployed[mc], ix.trig[mc]
			if a == c || len(trig) == 0 {
				continue
			}
			if kind := b.Oracle(a, c); kind != rules.NoMatch && timestampsSupport(exec, trig) {
				g.AddEdge(idx[a], idx[c], kind)
			}
		}
	}

	// Unexplained activity becomes anomaly nodes: commands no deployed rule
	// issued, and state changes with no command behind them, are exactly
	// what spoofing and stealthy-command attacks leave in a log. Each
	// anomalous device instance contributes one node wired to the rules
	// that reference it, so compromised windows are structurally visible to
	// the detector.
	b.addAnomalyNodes(g, deployed, members, idx, ix.anomalies(log))
	vuln.Label(g)
	return g
}

// instance is one device instance the log or a trigger names.
type instance struct {
	dev, room string
	watcher   int     // first deployed position whose trigger watches it (-1: none); logIndex.next chains the rest
	nCmds     int     // commands issued to it
	passed    int     // of them, how many the anomaly scan has passed
	cmds      []int64 // their times, ascending
	anomaly   string  // kind of its last unexplained event in log order ("": none)
}

type instKey struct{ dev, room string }

// logIndex is what one fuse needs from the log, gathered in passes that
// each touch an event once: the rules are bucketed by the instance their
// trigger watches and by ID, so an event resolves its instance and meets
// only that instance's few triggers. count sizes every time list, fill
// carves them from one array and appends without growing.
type logIndex struct {
	deployed []*rules.Rule
	insts    []instance
	instOf   map[instKey]int
	next     []int   // next deployed position watching the same instance (-1: last)
	evInst   []int32 // per event: its instance, -1 when no pass needs the event
	evSlot   []int32 // per event: the execution slot it adds to, -1 for none

	slotOf map[string]int // rule ID → execution slot: rules sharing an ID share executions
	slot   []int          // per deployed position
	nExec  []int          // per slot: commands the log attributes to the ID
	exec   [][]int64      // per slot: their times, ascending
	nTrig  []int          // per deployed position: events matching its trigger
	trig   [][]int64      // per deployed position: their times, ascending

	sorted bool // the log's times never decrease
}

func newLogIndex(deployed []*rules.Rule) *logIndex {
	n := len(deployed)
	ix := &logIndex{
		deployed: deployed,
		instOf:   make(map[instKey]int, n),
		next:     make([]int, n),
		slotOf:   make(map[string]int, n),
		slot:     make([]int, n),
		nTrig:    make([]int, n),
		trig:     make([][]int64, n),
	}
	for i, r := range deployed {
		j := ix.instance(r.Trigger.Device, r.Trigger.Room)
		ix.next[i], ix.insts[j].watcher = ix.insts[j].watcher, i
		s, ok := ix.slotOf[r.ID]
		if !ok {
			s = len(ix.slotOf)
			ix.slotOf[r.ID] = s
		}
		ix.slot[i] = s
	}
	ix.nExec = make([]int, len(ix.slotOf))
	ix.exec = make([][]int64, len(ix.slotOf))
	return ix
}

// instance returns the index of (dev, room), adding it when new.
func (ix *logIndex) instance(dev, room string) int {
	k := instKey{dev, room}
	j, ok := ix.instOf[k]
	if !ok {
		j = len(ix.insts)
		ix.instOf[k] = j
		ix.insts = append(ix.insts, instance{dev: dev, room: room, watcher: -1})
	}
	return j
}

// count resolves every event's instance and counts what fill will store.
func (ix *logIndex) count(log eventlog.Log) {
	ev := make([]int32, 2*len(log))
	ix.evInst, ix.evSlot = ev[:len(log)], ev[len(log):]
	ix.sorted = true
	for i := range log {
		e := &log[i]
		if i > 0 && e.Time < log[i-1].Time {
			ix.sorted = false
		}
		j, ok := ix.instOf[instKey{e.Device, e.Room}]
		if !ok {
			if e.Kind != eventlog.KindCommand && e.Kind != eventlog.KindState {
				ix.evInst[i] = -1 // a reading of a device nothing watches
				continue
			}
			j = ix.instance(e.Device, e.Room)
		}
		ix.evInst[i], ix.evSlot[i] = int32(j), -1
		if e.Kind == eventlog.KindCommand {
			ix.insts[j].nCmds++
			if s, ok := ix.slotOf[e.RuleID]; ok && e.RuleID != "" {
				ix.evSlot[i] = int32(s)
				ix.nExec[s]++
			}
		}
		for w := ix.insts[j].watcher; w >= 0; w = ix.next[w] {
			if t := &ix.deployed[w].Trigger; t.Channel == e.Channel && t.State == e.Value {
				ix.nTrig[w]++
			}
		}
	}
}

// fill stores the times count counted, sorting them when the log was not.
func (ix *logIndex) fill(log eventlog.Log) {
	total := 0
	for _, lens := range [][]int{ix.nExec, ix.nTrig} {
		for _, n := range lens {
			total += n
		}
	}
	for j := range ix.insts {
		total += ix.insts[j].nCmds
	}
	times := make([]int64, total)
	carve := func(n int) []int64 {
		s := times[:0:n]
		times = times[n:]
		return s
	}
	for s, n := range ix.nExec {
		ix.exec[s] = carve(n)
	}
	for i, n := range ix.nTrig {
		ix.trig[i] = carve(n)
	}
	for j := range ix.insts {
		ix.insts[j].cmds = carve(ix.insts[j].nCmds)
	}

	for i := range log {
		j := ix.evInst[i]
		if j < 0 {
			continue
		}
		e := &log[i]
		if e.Kind == eventlog.KindCommand {
			ix.insts[j].cmds = append(ix.insts[j].cmds, e.Time)
		}
		if s := ix.evSlot[i]; s >= 0 {
			ix.exec[s] = append(ix.exec[s], e.Time)
		}
		for w := ix.insts[j].watcher; w >= 0; w = ix.next[w] {
			if t := &ix.deployed[w].Trigger; t.Channel == e.Channel && t.State == e.Value {
				ix.trig[w] = append(ix.trig[w], e.Time)
			}
		}
	}
	if ix.sorted {
		return
	}
	for _, lists := range [][][]int64{ix.exec, ix.trig} {
		for _, l := range lists {
			slices.Sort(l)
		}
	}
	for j := range ix.insts {
		slices.Sort(ix.insts[j].cmds)
	}
}

// anomalies scans the log for unexplained command and state events and
// returns the instances that have one, ordered by (room, device). An
// instance's kind is that of its last anomalous event in log order.
func (ix *logIndex) anomalies(log eventlog.Log) []*instance {
	for i := range log {
		j := ix.evInst[i]
		if j < 0 {
			continue
		}
		switch e, in := &log[i], &ix.insts[j]; e.Kind {
		case eventlog.KindCommand:
			in.passed++
			if e.RuleID == "" {
				in.anomaly = "unexplained command"
			}
		case eventlog.KindState:
			// Explained by a command on the instance at most 2 s before.
			// In a sorted log that is nearly always the one just passed
			// (in any log, cmds[passed-1] is one of its commands and so a
			// valid witness); search only when it is not.
			if k := in.passed - 1; k >= 0 && in.cmds[k] <= e.Time && in.cmds[k] >= e.Time-2 {
				continue
			}
			k, _ := slices.BinarySearch(in.cmds, e.Time-2)
			if k == len(in.cmds) || in.cmds[k] > e.Time {
				in.anomaly = "unexplained state change"
			}
		}
	}
	var out []*instance
	for j := range ix.insts {
		if ix.insts[j].anomaly != "" {
			out = append(out, &ix.insts[j])
		}
	}
	slices.SortFunc(out, func(a, b *instance) int {
		return cmp.Or(cmp.Compare(a.room, b.room), cmp.Compare(a.dev, b.dev))
	})
	return out
}

// addAnomalyNodes grafts one node per anomalous instance into the online
// graph, wired to every member rule that references the instance.
func (b *Builder) addAnomalyNodes(g *graph.Graph, deployed []*rules.Rule, members []int,
	idx map[*rules.Rule]int, anomalous []*instance) {
	for _, k := range anomalous {
		// Its text, its instance's signature, and no trigger signature.
		dim := b.Encoder.WordDim()
		feat := make([]float64, dim+2*SigDim)
		b.Encoder.RuleEmbeddingInto(feat[:dim], k.anomaly+" of the "+k.room+" "+k.dev)
		axpy(feat[dim:dim+SigDim], b.sigVec(sigKey{room: k.room, dev: k.dev, kind: sigAnomaly}), 1)
		node := g.AddNode(graph.Node{Feature: feat, Space: graph.WordSpace})
		for _, m := range members {
			r := deployed[m]
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

// timestampsSupport reports whether some execution time is followed by a
// trigger match within the window. Both lists ascend, so the first match
// at or after an execution is the only one that can be close enough, and it
// only moves forward as the executions do.
func timestampsSupport(exec, trig []int64) bool {
	j := 0
	for _, te := range exec {
		for j < len(trig) && trig[j] < te {
			j++
		}
		if j == len(trig) {
			return false
		}
		if trig[j]-te <= TriggerWindow {
			return true
		}
	}
	return false
}

// OnlineSample couples an online graph with its ground truth for Table II:
// whether an attack was injected into the log it was fused from.
type OnlineSample struct {
	Graph    *graph.Graph
	Attacked bool
	Attack   eventlog.Attack // valid when Attacked
	Log      eventlog.Log
}

// Vulnerable reports the Table II ground truth: attacked logs and logs
// whose fused graph contains an inherent interaction vulnerability are
// positives.
func (s *OnlineSample) Vulnerable() bool {
	return s.Attacked || s.Graph.Label
}
