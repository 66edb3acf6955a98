package main

// mixed_http: a realistic traffic mix on the same serve.Engine workers —
// 80 % offline detect, 10 % detect with a cleaned event log of 512 events
// (≈600 simulated seconds of a typical home, ≈90 KB body), 10 % /v1/explain. A 10–50 ms explain holds the
// engine's worker, so the detect class's p95 shows head-of-line
// blocking; a change that speeds detect by starving explain (or the
// reverse) shows here and nowhere else, and the online class makes body
// decode + fusion.BuildOnline dominate.
//
// Phase A is an open loop of the mix at a fixed 300 req/s and gives the
// operator's numbers: detect_p50_ms, detect_p95_ms (where head-of-line
// blocking shows), online_p50_ms, explain_p50_ms. They are printed, not
// gated (see detect_http). Phase B is a closed loop of the mix on two
// connections and gives cpu_ms_per_op over the whole mix, the gated number
// an explain change moves. Phase C is a closed loop of detect-with-events
// requests alone and gives op_p50_ms and sat_ops_per_s (online_sat_rps),
// the gated numbers for body decode + BuildOnline, and op_p95_ms.
//
// Phase B's latencies and rate are not gated: explain's cost is heavy-tailed
// and the graphs it sees depend on how two connections interleave on the
// builder's RNG.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"time"

	"fexiot/internal/explain"
	"fexiot/internal/fusion"
	"fexiot/internal/graph"
	"fexiot/internal/serve"
)

const (
	mixedRate   = 300 // req/s, phase A
	onlineHomes = 32
	// An online request carries the first onlineEvents events of a log
	// simulated for onlineSteps seconds: a fixed count, because decode and
	// BuildOnline cost what the log holds, and 600 simulated seconds hold
	// 170 to 920 events depending on the home.
	onlineEvents = 512
	onlineSteps  = 1500
	// Algorithm 2's cost grows steeply with the searched component; homes
	// above this size put 100+ ms explains into the mix, and whether a run
	// draws a few more of them then decides the detect class's p95.
	explainMaxRules = 16

	classDetect  = 0
	classOnline  = 1
	classExplain = 2
)

// onlineReq is one detect-with-events request and the verdict the same
// input gets in-process.
type onlineReq struct {
	body  []byte
	score float64
	drift float64
}

type mixedEnv struct {
	detectEnv
	online  []onlineReq
	explain []home // the detect pool's homes of at most explainMaxRules rules
}

func setupMixed(c runCfg) (env, error) {
	base, err := setupDetect(c)
	if err != nil {
		return nil, err
	}
	e := &mixedEnv{detectEnv: *base.(*detectEnv)}
	// 20–30 rules per home; a home too quiet to fill the log is skipped, as
	// is one whose rules never fire in it — it would fuse into an empty
	// graph (a 400).
	cands, err := genHomes(c.seed, 3, 4*onlineHomes, 20, 11)
	if err != nil {
		e.close()
		return nil, err
	}
	for i, h := range cands {
		if len(e.online) == onlineHomes {
			break
		}
		log := cleanedLog(h, onlineSteps, mix(c.seed, 4, i), false)
		if len(log) < onlineEvents {
			continue
		}
		log = log[:onlineEvents]
		g := e.st.sys.BuildOnlineGraph(h.rules, log)
		if g.N() == 0 {
			continue
		}
		v, err := e.st.sys.Detect(g)
		if err != nil {
			e.close()
			return nil, err
		}
		body, err := json.Marshal(serve.DetectRequest{Rules: h.rules, Events: log})
		if err != nil {
			e.close()
			return nil, err
		}
		e.online = append(e.online, onlineReq{body, v.Score, v.DriftScore})
	}
	if len(e.online) < onlineHomes {
		e.close()
		return nil, fmt.Errorf("only %d of %d online homes fill their log and fuse into a non-empty graph",
			len(e.online), onlineHomes)
	}
	for _, h := range e.homes {
		if len(h.rules) <= explainMaxRules {
			e.explain = append(e.explain, h)
		}
	}
	if !warm(c.workers, 40, e.op) {
		e.close()
		return nil, errWarm
	}
	return e, nil
}

// classOf fixes the mix: of every ten requests one is online, one explain.
func classOf(k int) int {
	switch k % 10 {
	case 3:
		return classOnline
	case 7:
		return classExplain
	}
	return classDetect
}

func (e *mixedEnv) op(w, k int) (int, bool) {
	switch classOf(k) {
	case classOnline:
		o := e.online[(k/10)%len(e.online)]
		r, ok := detectOK(e.st.do(w, http.MethodPost, "/v1/detect", jsonType, o.body))
		// The HTTP path must be the in-process path, bit for bit.
		return classOnline, ok && r.Score == o.score && r.DriftScore == o.drift
	case classExplain:
		return classExplain, explainOK(e.st.do(w, http.MethodPost, "/v1/explain", jsonType,
			e.explain[(k/10)%len(e.explain)].body))
	}
	return classDetect, e.detect(w, k)
}

// onlineOp is the detect-with-events class alone.
func (e *mixedEnv) onlineOp(w, k int) (int, bool) { return e.op(w, 10*k+3) }

func (e *mixedEnv) run(c runCfg) result {
	a := openLoop(mixedRate, c.dur(0.2), c.workers, false, e.op)
	b := closedLoop(c.dur(0.4), c.workers, false, e.op)
	o := closedLoop(c.dur(0.4), c.workers, false, e.onlineOp)
	return mixedResult(a, b, o)
}

func mixedResult(a, b, o phase) result {
	r := loopResult(a, o, classOnline)
	r.attempted += len(b.samples)
	r.failed += b.failed()
	r.e2e["cpu_ms_per_op"] = b.cpuMS
	ms, at := a.latencies(classDetect)
	p := sliceQuiet(ms, at, 1.2, 200, 50, 95)
	on, _ := a.latencies(classOnline)
	ex, _ := a.latencies(classExplain)
	r.named["detect_p50_ms"], r.named["detect_p95_ms"] = p[0], p[1]
	r.named["online_p50_ms"], r.named["explain_p50_ms"] = median(on), median(ex)
	r.named["online_sat_rps"] = r.e2e["sat_ops_per_s"]
	return r
}

func (e *mixedEnv) trace(c runCfg, rec *recorder) (map[string]float64, result) {
	layer := map[string]float64{}
	res, _ := e.st.reference(layer, func() (phase, result) {
		a := openLoop(mixedRate, c.dur(0.15), c.workers, false, e.op)
		b := closedLoop(c.dur(0.15), c.workers, false, e.op)
		o := closedLoop(c.dur(0.1), c.workers, false, e.onlineOp)
		return a, mixedResult(a, b, o)
	})

	k := newKit(defaultDims, servePlan)
	defer k.close()
	e.replay(k, nil, detectHomes, time.Hour) // warm
	n, plain := e.replay(k, nil, 0, c.dur(0.3))
	_, traced := e.replay(k, rec, n, time.Hour)
	layer["trace.overhead_ratio"] = traced.Seconds() / plain.Seconds()

	self := rec.selfTimesUS()
	attributed := detectLayersInto(layer, self)
	layer["serve.decode_online_us"] = medianSelfUS(self, "serve.decode_online")
	layer["fusion.online_us"] = medianSelfUS(self, "fusion.online")
	layer["http.residual_us"] = res.named["detect_p50_ms"]*1e3 - attributed
	layer["explain.explain_us"] = medianSelfUS(self, "explain.explain")
	st := k.builder.FeatureCacheStats()
	layer["fusion.feature_cache_hit_ratio"] = ratio(float64(st.Hits), float64(st.Misses))
	layer["fusion.node_feature_us"] = coldNodeFeatureUS(e.homes, defaultDims)
	explainProbes(layer, &res, k, e.explain[:40])
	var gs []*graph.Graph
	for _, h := range e.homes[:101] {
		gs = append(gs, k.buildOffline(h.rules))
	}
	matProbes(layer, medianGraph(gs), fusion.WordFeatureDim(k.builder.Encoder), defaultDims.hidden)
	return layer, res
}

func (e *mixedEnv) replay(k *kit, rec *recorder, n int, budget time.Duration) (int, time.Duration) {
	r := newReplayer(k, rec)
	return replayLoop(n, budget, func(i int) {
		switch classOf(i) {
		case classOnline:
			r.detectOp(i, e.online[(i/10)%len(e.online)].body, true)
		case classExplain:
			r.explainOp(i, e.explain[(i/10)%len(e.explain)].body)
		default:
			r.detectOp(i, e.homes[i%len(e.homes)].body, false)
		}
	})
}

// explainOp is POST /v1/explain: decode → BuildGraph → Engine.Explain
// (Snapshot.Explain) → encode.
func (r *replayer) explainOp(i int, body []byte) {
	rec, k := r.rec, r.k
	hreq := httptest.NewRequest(http.MethodPost, "/v1/explain", bytes.NewReader(body))
	rw := httptest.NewRecorder()
	var in serve.DetectRequest
	var g *graph.Graph
	var ex serve.Explanation
	var seq uint64

	root := rec.begin("op.explain", -1, i)
	rec.call("serve.decode", root, i, func() { serve.ReadJSON(rw, hreq, 1<<20, &in) })
	rec.call("fusion.offline", root, i, func() { g = k.buildOffline(in.Rules) })
	eng := rec.call("serve.engine_explain", root, i, func() { ex, seq, _ = k.eng.Explain(r.ctx, g) })
	rec.shadow("explain.explain", eng, i, func() { k.snap.Explain(g) })
	rec.call("serve.encode", root, i, func() {
		serve.WriteJSON(rw, http.StatusOK, serve.ExplainResponse{NodeIndices: ex.NodeIndices,
			Score: ex.Score, Fidelity: ex.Fidelity, Sparsity: ex.Sparsity, SnapshotSeq: seq})
	})
	rec.end(root)
}

// explainProbes times one kernel-SHAP evaluation (explain.KernelSHAP on the
// graph's first MinNodes nodes) and counts how often Algorithm 2 calls the
// detector per explanation — an exact count, pinned by running it twice.
func explainProbes(layer map[string]float64, res *result, k *kit, homes []home) {
	cfg := explain.DefaultSearchConfig(systemSeed)
	var gs []*graph.Graph
	for _, h := range homes {
		if g := k.buildOffline(h.rules); g.N() >= 6 {
			gs = append(gs, g)
		}
	}
	if len(gs) == 0 {
		return
	}
	score := func(sub *graph.Graph) float64 {
		if sub.N() == 0 {
			return 0
		}
		return k.det.Score(sub)
	}
	var shap []float64
	for _, g := range gs {
		sub := g.ComponentOf(0)
		if len(sub) > cfg.MinNodes {
			sub = sub[:cfg.MinNodes]
		}
		t := time.Now()
		explain.KernelSHAP(score, g, sub, cfg.KernelSamples, cfg.Seed)
		shap = append(shap, float64(time.Since(t))/1e3)
	}
	layer["explain.shap_us"] = median(shap)

	count := func() float64 {
		calls := 0
		counting := func(sub *graph.Graph) float64 { calls++; return score(sub) }
		for _, g := range gs {
			explain.FexIoTExplain(counting, g, cfg)
		}
		return float64(calls) / float64(len(gs))
	}
	c1, c2 := count(), count()
	layer["explain.score_calls_per_explain"] = c1
	if c1 != c2 {
		res.fail("explain score calls differ between two same-seed passes: %v vs %v", c1, c2)
	}
}
