package main

// audit_batch: the paper's Table III, in-process through the facade at the
// paper's dimensions (GIN, 300/512/64/32; trained in set-up on 200 graphs,
// 4 × 100 pairs) on one goroutine: BuildGraph from 40 homes (graph
// construction), Detect every graph (prediction), Explain the
// verdict-vulnerable graphs with at least 6 nodes (vulnerability
// analysis). It bypasses serve, HTTP, the engine and streams entirely and
// is kernel- and search-bound: the "no change predicted" workload for
// every serving-tier optimisation and the "must move" workload for kernel
// work.
//
// op_p50_ms is the per-graph Detect latency (predict_ms_per_graph is its
// mean), sat_ops_per_s is graphs explained per second of analysis (1000 /
// analyse_ms_per_graph), cpu_ms_per_op the CPU of constructing and
// detecting one graph; construction is the layer metric
// audit.construct_ms_per_graph.

import (
	"time"

	"fexiot"
	"fexiot/internal/explain"
	"fexiot/internal/fusion"
	"fexiot/internal/graph"
)

const (
	auditHomes     = 40
	auditRules     = 30
	auditMinNodes  = 6 // smallest and largest searched component analysed
	auditMaxNodes  = 8
	auditPerBucket = 100
)

type auditEnv struct {
	sys   *fexiot.System
	homes []home
	seed  int64
}

func setupAudit(c runCfg) (env, error) {
	sys, err := newSystem(paperDims, auditPlan, nil)
	if err != nil {
		return nil, err
	}
	homes, err := genHomes(c.seed, 9, auditHomes, auditRules, 1)
	if err != nil {
		return nil, err
	}
	return &auditEnv{sys: sys, homes: homes, seed: c.seed}, nil
}

func (e *auditEnv) close() {}

// auditRun is the three Table III stages.
type auditRun struct {
	constructMS, predictMS, analyseMS []float64 // per graph
}

// largestComponent is the node count of g's largest weakly connected
// component — the root Algorithm 2 searches from, and what its cost grows
// with (≈25 ms at 6 nodes, ≈600 ms at 16, at the paper's dimensions).
func largestComponent(g *graph.Graph) int {
	seen := make([]bool, g.N())
	best := 0
	for i := range seen {
		if seen[i] {
			continue
		}
		comp := g.ComponentOf(i)
		for _, v := range comp {
			seen[v] = true
		}
		best = max(best, len(comp))
	}
	return best
}

// stages runs construction and prediction interleaved, one graph at a
// time, for the first share of the run — each graph is built, detected
// once (cold, as an audit does) and dropped, so memory stays flat — then
// analysis for the second share. Suspects are kept in buckets by largest
// component (auditMinNodes … auditMaxNodes) and explained round-robin
// across the buckets, so every seed analyses the same mix of search sizes.
//
// Analysis makes two passes over the same suspects — the first for half
// its share of the run, the second over the graphs the first reached — and
// a graph's analysis time is the faster of its two: Explain does the same
// work both times, so the difference is the host's, and one-second slices
// cannot separate that here, where an explanation takes 10 to 100 ms and
// what a slice costs depends on which graphs fall into it.
func (e *auditEnv) stages(c runCfg, res *result, audit, analyse float64) auditRun {
	var run auditRun
	var buckets [auditMaxNodes - auditMinNodes + 1][]*graph.Graph
	var predictAt []float64 // when each graph was detected, seconds into the stage
	meter := newCPUMeter()
	for t0, i := time.Now(), 0; time.Since(t0) < c.dur(audit); i++ {
		t := time.Now()
		predictAt = append(predictAt, t.Sub(t0).Seconds())
		g := e.sys.BuildGraph(e.homes[i%len(e.homes)].rules)
		t1 := time.Now()
		v, err := e.sys.Detect(g)
		run.constructMS = append(run.constructMS, float64(t1.Sub(t))/1e6)
		run.predictMS = append(run.predictMS, float64(time.Since(t1))/1e6)
		if err != nil || !finite01(v.Score) || !finite(v.DriftScore) {
			res.failed++
		}
		if b := largestComponent(g) - auditMinNodes; v.Vulnerable && b >= 0 &&
			b < len(buckets) && len(buckets[b]) < auditPerBucket {
			buckets[b] = append(buckets[b], g)
		}
		meter.tick(int64(i + 1))
	}
	res.e2e["cpu_ms_per_op"] = meter.msPerOp(int64(len(run.predictMS)))
	for b := range buckets {
		if len(buckets[b]) == 0 {
			res.fail("no vulnerable graph with a %d-node component to explain", b+auditMinNodes)
			return run
		}
	}

	explain := func(g *graph.Graph) float64 {
		t := time.Now()
		ex, err := e.sys.Explain(g)
		ms := float64(time.Since(t)) / 1e6
		// An explanation is a non-empty connected subgraph with finite
		// fidelity and sparsity.
		if err != nil || len(ex.NodeIndices) == 0 || !finite(ex.Score, ex.Fidelity, ex.Sparsity) ||
			!g.InducedSubgraph(ex.NodeIndices).ConnectedUndirected() {
			res.failed++
		}
		return ms
	}
	var suspects []*graph.Graph
	for t0, i := time.Now(), 0; time.Since(t0) < c.dur(analyse)/2; i++ {
		bucket := buckets[i%len(buckets)]
		g := bucket[(i/len(buckets))%len(bucket)]
		suspects = append(suspects, g)
		run.analyseMS = append(run.analyseMS, explain(g))
	}
	for i, g := range suspects {
		run.analyseMS[i] = min(run.analyseMS[i], explain(g))
	}
	res.attempted = len(run.constructMS) + len(run.predictMS) + 2*len(run.analyseMS)

	p := sliceQuiet(run.predictMS, predictAt, 1, 200, 50, 95)
	res.e2e["op_p50_ms"] = p[0]
	res.e2e["sat_ops_per_s"] = 1000 / mean(run.analyseMS)
	res.named["op_p95_ms"] = p[1]
	res.named["construct_ms_per_graph"] = mean(run.constructMS)
	res.named["predict_ms_per_graph"] = mean(run.predictMS)
	res.named["analyse_ms_per_graph"] = mean(run.analyseMS)
	return run
}

func (e *auditEnv) run(c runCfg) result {
	res := result{e2e: map[string]float64{}, named: map[string]float64{}}
	e.stages(c, &res, 0.45, 0.55)
	return res
}

func (e *auditEnv) trace(c runCfg, rec *recorder) (map[string]float64, result) {
	layer := map[string]float64{}
	res := result{e2e: map[string]float64{}, named: map[string]float64{}}
	pm := startProc()
	e.stages(c, &res, 0.15, 0.25)
	pm.into(layer, res.attempted)
	layer["audit.construct_ms_per_graph"] = res.named["construct_ms_per_graph"]
	delete(res.named, "construct_ms_per_graph")

	k := newKit(paperDims, auditPlan)
	defer k.close()
	e.replay(k, nil, auditHomes, time.Hour) // warm
	n, plain := e.replay(k, nil, 0, c.dur(0.2))
	_, traced := e.replay(k, rec, n, time.Hour)
	layer["trace.overhead_ratio"] = traced.Seconds() / plain.Seconds()

	self := rec.selfTimesUS()
	layer["fusion.offline_us"] = medianSelfUS(self, "fusion.offline")
	layer["gnn.classify_drift_us"] = medianSelfUS(self, "serve.snapshot_detect")
	layer["gnn.embed_us"] = medianSelfUS(self, "gnn.embed")
	layer["serve.snapshot_detect_us"] = layer["gnn.classify_drift_us"] + layer["gnn.embed_us"]
	layer["explain.explain_us"] = median(rec.durationsUS("explain.explain"))
	layer["fusion.node_feature_us"] = coldNodeFeatureUS(e.homes, paperDims)
	st := k.builder.FeatureCacheStats()
	layer["fusion.feature_cache_hit_ratio"] = ratio(float64(st.Hits), float64(st.Misses))
	explainProbes(layer, &res, k, e.homes)
	var gs []*graph.Graph
	for _, h := range e.homes {
		gs = append(gs, k.buildOffline(h.rules))
	}
	matProbes(layer, medianGraph(gs), fusion.WordFeatureDim(k.builder.Encoder), paperDims.hidden)
	return layer, res
}

// replay is Table III one graph at a time through the kit: Builder.Offline
// → Snapshot.Detect (Workspace.Embed) and, for every eighth graph large
// enough, explain.FexIoTExplain with the time inside the detector's
// scoring calls split out.
func (e *auditEnv) replay(k *kit, rec *recorder, n int, budget time.Duration) (int, time.Duration) {
	r := newReplayer(k, rec)
	cfg := explain.DefaultSearchConfig(systemSeed)
	return replayLoop(n, budget, func(i int) {
		var g *graph.Graph
		root := rec.begin("op.audit", -1, i)
		rec.call("fusion.offline", root, i, func() { g = k.buildOffline(e.homes[i%len(e.homes)].rules) })
		sd := rec.call("serve.snapshot_detect", root, i, func() { k.snap.Detect(g) })
		rec.shadow("gnn.embed", sd, i, func() { r.ws2.Embed(k.model, g) })
		if i%8 == 0 && g.N() >= auditMinNodes {
			var scoring time.Duration
			h := func(sub *graph.Graph) float64 {
				if sub.N() == 0 {
					return 0
				}
				t := time.Now()
				s := k.det.Score(sub)
				scoring += time.Since(t)
				return s
			}
			ex := rec.call("explain.explain", root, i, func() {
				out := explain.FexIoTExplain(h, g, cfg)
				explain.Fidelity(h, g, out.Nodes)
				explain.Sparsity(g, out.Nodes)
			})
			rec.attach("gnn.score", ex, i, scoring)
		}
		rec.end(root)
	})
}
