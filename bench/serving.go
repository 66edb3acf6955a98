package main

// serving.go holds what the three HTTP workloads (detect_http, mixed_http,
// stream_cycle) share: the shape of their results, the traced run's
// untraced reference pass, and the replayer that walks one request at a
// time through the kit's layers.

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"time"

	"fexiot/internal/embed"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/serve"
)

// loopResult is the shared shape of the HTTP workloads' results: the gated
// metrics come from the closed loop b (class gates its latencies), the
// open loop a is reported under the operator's names by the caller.
func loopResult(a, b phase, class int) result {
	ms, at := b.latencies(class)
	p := sliceQuiet(ms, at, 1, 200, 50, 95)
	return result{
		attempted: len(a.samples) + len(b.samples),
		failed:    a.failed() + b.failed(),
		e2e: map[string]float64{"op_p50_ms": p[0],
			"sat_ops_per_s": b.quietPerSecond(satSlice), "cpu_ms_per_op": b.cpuMS},
		named: map[string]float64{"op_p95_ms": p[1]},
	}
}

// reference is the traced run's untraced pass: load runs between two
// /metrics scrapes and two readings of the Go runtime's counters, and the
// generator's own validity numbers (for load's open-loop phase), proc.* and
// the scraped serve and arena counts go into layer. It returns load's
// result and the scrape diff — empty when scraping failed, which is also
// recorded as a problem.
func (st *stack) reference(layer map[string]float64, load func() (phase, result)) (result, scrape) {
	before, err1 := st.scrape()
	pm := startProc()
	a, res := load()
	pm.into(layer, res.attempted)
	after, err2 := st.scrape()
	d := scrape{}
	if err1 != nil || err2 != nil {
		res.fail("scraping /metrics: %v %v", err1, err2)
	} else {
		d = after.diff(before)
	}
	layer["serve.requests_total"] = d.sum("fexiot_serve_request_duration_seconds_count")
	layer["serve.shed_total"] = d.sum("fexiot_serve_shed_total")
	layer["mat.arena_hit_ratio"] = ratio(d.sum("fexiot_mat_arena_hits_total"),
		d.sum("fexiot_mat_arena_misses_total"))
	ms, _ := a.latencies(-1)
	layer["loadgen.sent"] = float64(res.attempted)
	layer["loadgen.n"] = float64(len(a.samples))
	layer["loadgen.send_lag_p95_ms"] = a.lagP95MS()
	layer["loadgen.p99_ms"] = percentile(sortedCopy(ms), 99)
	return res, d
}

// maxReplayOps bounds a replay (and with it the span file).
const maxReplayOps = 4000

// replayLoop calls op(0), op(1), …: exactly n times when n > 0, otherwise
// until the budget is spent or maxReplayOps is reached. It returns the
// count and the wall time, so an untraced pass can size the traced one.
func replayLoop(n int, budget time.Duration, op func(i int)) (int, time.Duration) {
	t0 := time.Now()
	i := 0
	for ; (n > 0 && i < n) || (n == 0 && i < maxReplayOps && time.Since(t0) < budget); i++ {
		op(i)
	}
	return i, time.Since(t0)
}

// replayer walks one request at a time through the kit's layers, recording
// a span per call. Every replayed request is a root span with the real
// sequential calls as children; an outer call's inner layer is repeated on
// the same input as a shadow child (see span).
type replayer struct {
	k       *kit
	rec     *recorder
	ws, ws2 *gnn.Workspace
	ctx     context.Context
}

func newReplayer(k *kit, rec *recorder) *replayer {
	return &replayer{k: k, rec: rec, ws: gnn.NewWorkspace(), ws2: gnn.NewWorkspace(),
		ctx: context.Background()}
}

// detectOp is POST /v1/detect: serve.ReadJSON → BuildGraph or
// BuildOnlineGraph → Engine.Detect (Snapshot.DetectWith (Workspace.Embed))
// → serve.WriteJSON.
func (r *replayer) detectOp(i int, body []byte, online bool) {
	rec, k := r.rec, r.k
	decode, fuse := "serve.decode", "fusion.offline"
	if online {
		decode, fuse = "serve.decode_online", "fusion.online"
	}
	hreq := httptest.NewRequest(http.MethodPost, "/v1/detect", bytes.NewReader(body))
	rw := httptest.NewRecorder()
	var in serve.DetectRequest
	var g *graph.Graph
	var v serve.Verdict
	var seq uint64

	root := rec.begin("op.detect", -1, i)
	rec.call(decode, root, i, func() { serve.ReadJSON(rw, hreq, 1<<20, &in) })
	rec.call(fuse, root, i, func() {
		if online {
			g = k.builder.BuildOnline(in.Rules, in.Events)
		} else {
			g = k.buildOffline(in.Rules)
		}
	})
	eng := rec.call("serve.engine", root, i, func() { v, seq, _ = k.eng.Detect(r.ctx, g) })
	sd := rec.shadow("serve.snapshot_detect", eng, i, func() { k.snap.DetectWith(r.ws, g) })
	rec.shadow("gnn.embed", sd, i, func() { r.ws2.Embed(k.model, g) })
	rec.call("serve.encode", root, i, func() {
		serve.WriteJSON(rw, http.StatusOK, serve.DetectResponse{Vulnerable: v.Vulnerable,
			Score: v.Score, Drifting: v.Drifting, DriftScore: v.DriftScore,
			Nodes: g.N(), SnapshotSeq: seq})
	})
	rec.end(root)
}

// inferLayersInto turns the replay's self times into the metrics of the
// layers every detection passes through — engine hand-off, classify +
// drift, embed, reply encoding — and returns their sum.
func inferLayersInto(layer map[string]float64, self map[string][]float64) float64 {
	layer["serve.engine_overhead_us"] = medianSelfUS(self, "serve.engine")
	layer["gnn.classify_drift_us"] = medianSelfUS(self, "serve.snapshot_detect")
	layer["gnn.embed_us"] = medianSelfUS(self, "gnn.embed")
	layer["serve.snapshot_detect_us"] = layer["gnn.classify_drift_us"] + layer["gnn.embed_us"]
	layer["serve.encode_us"] = medianSelfUS(self, "serve.encode")
	return layer["serve.engine_overhead_us"] + layer["serve.snapshot_detect_us"] + layer["serve.encode_us"]
}

// detectLayersInto adds the offline request's decode and fuse, and returns
// the attributed time of one offline detect.
func detectLayersInto(layer map[string]float64, self map[string][]float64) float64 {
	layer["serve.decode_us"] = medianSelfUS(self, "serve.decode")
	layer["fusion.offline_us"] = medianSelfUS(self, "fusion.offline")
	return layer["serve.decode_us"] + layer["fusion.offline_us"] + inferLayersInto(layer, self)
}

// coldNodeFeatureUS is Builder.NodeFeature on a builder that has seen
// nothing: text → embedding per rule, the cost the feature cache saves.
func coldNodeFeatureUS(homes []home, d dims) float64 {
	b := fusion.NewBuilder(systemSeed, embed.NewEncoder(d.word, d.sentence))
	var us []float64
	for _, h := range homes[:32] {
		for _, r := range h.rules {
			t := time.Now()
			b.NodeFeature(r)
			us = append(us, float64(time.Since(t))/1e3)
		}
	}
	return median(us)
}
