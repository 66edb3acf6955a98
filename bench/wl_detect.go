package main

// detect_http: the offline pre-deployment audit over HTTP — the hot serving
// path (serve decode, fusion.Offline, one GNN embed, classify + drift,
// engine hand-off) with explain, stream, eventlog and fed* doing no work.
//
// Phase A is an open loop at a fixed 600 req/s — under half of what the
// one core saturates at on the reference box, so queueing exists but no
// backlog grows — and gives detect_p50_ms / detect_p95_ms, counted from
// when each request was due. Phase B is a closed loop of two connections
// and gives the gated numbers: op_p50_ms (a request's latency with two in
// flight), sat_ops_per_s (detect_sat_rps) and cpu_ms_per_op; its p95 is
// reported as op_p95_ms.
//
// The open-loop latencies are printed, not gated: below saturation the
// core idles between requests, what is measured is largely the cost of
// waking it, and on the reference VM that cost moves from one run to the
// next more than the closed loop's numbers do.

import (
	"net/http"
	"time"

	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
)

const (
	detectRate  = 600 // req/s, phase A
	detectHomes = 512
	jsonType    = "application/json"
)

type detectEnv struct {
	st    *stack
	homes []home
	seed  int64
}

func setupDetect(c runCfg) (env, error) {
	st, err := startStack(defaultDims, servePlan)
	if err != nil {
		return nil, err
	}
	// 8–40 rules per home, every archetype: ≈9 KB of JSON per request.
	homes, err := genHomes(c.seed, 2, detectHomes, 8, 33)
	if err != nil {
		st.close()
		return nil, err
	}
	e := &detectEnv{st: st, homes: homes, seed: c.seed}
	// Warm-up: connections established, every home seen once so the
	// builder's feature cache is in its steady state.
	if !warm(c.workers, detectHomes, e.op) {
		st.close()
		return nil, errWarm
	}
	return e, nil
}

func (e *detectEnv) close() { e.st.close() }

// detect posts home k and gates the reply.
func (e *detectEnv) detect(w, k int) bool {
	_, ok := detectOK(e.st.do(w, http.MethodPost, "/v1/detect", jsonType,
		e.homes[k%len(e.homes)].body))
	return ok
}

func (e *detectEnv) op(w, k int) (int, bool) { return 0, e.detect(w, k) }

func (e *detectEnv) run(c runCfg) result {
	a := openLoop(detectRate, c.dur(0.3), c.workers, false, e.op)
	b := closedLoop(c.dur(0.7), c.workers, false, e.op)
	return detectResult(a, b)
}

func detectResult(a, b phase) result {
	r := loopResult(a, b, 0)
	ms, at := a.latencies(0)
	p := sliceQuiet(ms, at, 1, 200, 50, 95)
	r.named["detect_p50_ms"], r.named["detect_p95_ms"] = p[0], p[1]
	r.named["detect_sat_rps"] = r.e2e["sat_ops_per_s"]
	return r
}

func (e *detectEnv) trace(c runCfg, rec *recorder) (map[string]float64, result) {
	layer := map[string]float64{}
	res, _ := e.st.reference(layer, func() (phase, result) {
		a := openLoop(detectRate, c.dur(0.2), c.workers, false, e.op)
		b := closedLoop(c.dur(0.2), c.workers, false, e.op)
		return a, detectResult(a, b)
	})

	// The replay: the same request bodies, one at a time, through each
	// layer's public function. Untraced first (nil recorder), traced
	// second, same operations.
	k := newKit(defaultDims, servePlan)
	defer k.close()
	flops, dispatch := e.countPass(k)
	e.replay(k, nil, detectHomes, time.Hour) // warm: every home through the kit's caches once
	n, plain := e.replay(k, nil, 0, c.dur(0.3))
	_, traced := e.replay(k, rec, n, time.Hour)
	layer["trace.overhead_ratio"] = traced.Seconds() / plain.Seconds()

	attributed := detectLayersInto(layer, rec.selfTimesUS())
	layer["http.residual_us"] = res.named["detect_p50_ms"]*1e3 - attributed

	st := k.builder.FeatureCacheStats()
	layer["fusion.feature_cache_hit_ratio"] = ratio(float64(st.Hits), float64(st.Misses))
	layer["fusion.node_feature_us"] = coldNodeFeatureUS(e.homes, defaultDims)
	layer["mat.flops_per_detect"], layer["mat.dispatch_per_detect"] = flops, dispatch

	// Exact-count pin: a second kit of the same seed must count the same.
	k2 := newKit(defaultDims, servePlan)
	f2, d2 := e.countPass(k2)
	k2.close()
	if f2 != flops || d2 != dispatch {
		res.fail("mat counts differ between two same-seed passes: flops %v vs %v, dispatch %v vs %v",
			flops, f2, dispatch, d2)
	}

	var gs []*graph.Graph
	for i := 0; i < 101; i++ {
		gs = append(gs, k.buildOffline(e.homes[i].rules))
	}
	matProbes(layer, medianGraph(gs), fusion.WordFeatureDim(k.builder.Encoder), defaultDims.hidden)
	return layer, res
}

// countPass fuses and detects the first 200 homes on a fresh kit and
// returns the kernel FLOPs and dispatches per detect the kit's registry
// counted. Sequential and seeded, so the counts are exact.
func (e *detectEnv) countPass(k *kit) (flops, dispatch float64) {
	const n = 200
	ws := gnn.NewWorkspace()
	c0 := k.counters()
	for i := 0; i < n; i++ {
		k.snap.DetectWith(ws, k.buildOffline(e.homes[i%len(e.homes)].rules))
	}
	d := k.counters().diff(c0)
	return d.sum("fexiot_mat_flops_total") / n, d.sum("fexiot_mat_dispatch_total") / n
}

// replay pushes request bodies through the layers one at a time. With
// n == 0 it runs until the budget is spent (at most maxReplayOps) and
// returns how many it did; otherwise it does exactly n. Returns the count
// and the wall time.
func (e *detectEnv) replay(k *kit, rec *recorder, n int, budget time.Duration) (int, time.Duration) {
	r := newReplayer(k, rec)
	return replayLoop(n, budget, func(i int) {
		r.detectOp(i, e.homes[i%len(e.homes)].body, false)
	})
}
