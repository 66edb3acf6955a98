package main

// sut.go is the only file besides the wl_*.go workloads that touches the
// system under test. It has three parts: seeded input generators (the
// system only ever receives what they produce), `stack` — the serving
// tier started in-process the way cmd/fexserve wires it and driven over
// loopback HTTP — and `kit`, the same layers assembled from the internal
// packages so the traced replay can call each layer's public functions.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"time"

	"fexiot"
	"fexiot/internal/autodiff"
	"fexiot/internal/drift"
	"fexiot/internal/embed"
	"fexiot/internal/eventlog"
	"fexiot/internal/explain"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
	"fexiot/internal/rules"
	"fexiot/internal/serve"
	"fexiot/internal/stream"
)

// ---- seeded inputs ------------------------------------------------------

// mix derives an independent stream seed from the run seed, so -seed
// changes every generated home, log and client split.
func mix(seed int64, stream, i int) int64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)*0xbf58476d1ce4e5b9 + uint64(i)*0x94d049bb133111eb
	x ^= x >> 31
	x *= 0xd6e8feb86659fd93
	x ^= x >> 29
	return int64(x >> 1)
}

// home is one generated deployment and its /v1/detect request body.
type home struct {
	rules []*rules.Rule
	body  []byte
}

// genHomes generates n homes cycling through every archetype. Rule counts
// cycle deterministically through [minRules, minRules+span) instead of
// being drawn, so the size distribution — which sets the mean cost — is the
// same for every seed and only the content varies.
func genHomes(seed int64, stream, n, minRules, span int) ([]home, error) {
	archs := fexiot.ArchetypeNames()
	out := make([]home, n)
	for i := range out {
		// 17 is coprime to every span used, so sizes and archetypes are
		// decorrelated along the pool.
		size := minRules + (i*17)%span
		rs := fexiot.GenerateHome(archs[i%len(archs)], size, mix(seed, stream, i))
		body, err := json.Marshal(serve.DetectRequest{Rules: rs})
		if err != nil {
			return nil, err
		}
		out[i] = home{rules: rs, body: body}
	}
	return out, nil
}

// cleanedLog simulates a home for `steps` simulated seconds and cleans the
// log (§III-A2), optionally with fake commands injected first.
func cleanedLog(h home, steps int64, seed int64, attack bool) eventlog.Log {
	raw := fexiot.SimulateHome(h.rules, steps, seed)
	if attack {
		raw = eventlog.Inject(raw, eventlog.FakeCommands, h.rules, 0.6, seed+1)
	}
	return fexiot.CleanLog(raw)
}

// ndjson renders events one JSON object per line, the body of
// POST /v1/streams/{id}/events.
func ndjson(evs []eventlog.Event) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, e := range evs {
		enc.Encode(e) // an Event of plain fields cannot fail to marshal
	}
	return b.Bytes()
}

// trainingGraphs samples labelled offline graphs the way cmd/fexserve
// does: homes × graphsPerHome BuildGraph draws.
func trainingGraphs(build func([]*rules.Rule) *graph.Graph, seed int64,
	homes, rulesPerHome, graphsPerHome int) []*graph.Graph {
	archs := fexiot.ArchetypeNames()
	var out []*graph.Graph
	for h := 0; h < homes; h++ {
		rs := fexiot.GenerateHome(archs[h%len(archs)], rulesPerHome, mix(seed, 1, h))
		for i := 0; i < graphsPerHome; i++ {
			out = append(out, build(rs))
		}
	}
	return out
}

// dims names a model size.
type dims struct{ word, sentence, hidden, embed int }

var (
	defaultDims = dims{48, 64, 24, 16}   // fexiot.DefaultOptions
	paperDims   = dims{300, 512, 64, 32} // the paper's spaCy/USE widths
)

// trainPlan is a TrainCentral recipe.
type trainPlan struct{ homes, rulesPerHome, graphsPerHome, rounds, pairs int }

var (
	servePlan = trainPlan{10, 22, 4, 3, 80}  // cmd/fexserve's defaults
	auditPlan = trainPlan{40, 30, 5, 4, 100} // 200 graphs, 4 × 100 pairs
)

func options(d dims, seed int64, reg *obs.Registry) fexiot.Options {
	o := fexiot.DefaultOptions()
	o.WordDim, o.SentenceDim, o.Hidden, o.EmbedDim = d.word, d.sentence, d.hidden, d.embed
	o.Seed = seed
	o.Metrics = reg
	return o
}

// systemSeed seeds the deployed system — its training homes, its model's
// initial weights, its graph builder — and is the same on every run:
// --seed changes the traffic, not the detector it is sent to. A detector
// trained from another seed scores, and so searches, differently; with the
// run's seed here explain's cost alone spread 20 % between seeds, with a
// constant 6 %.
const systemSeed = 1

// newSystem builds and trains a facade System.
func newSystem(d dims, p trainPlan, reg *obs.Registry) (*fexiot.System, error) {
	sys, err := fexiot.New(options(d, systemSeed, reg))
	if err != nil {
		return nil, err
	}
	sys.TrainCentral(trainingGraphs(sys.BuildGraph, systemSeed, p.homes, p.rulesPerHome,
		p.graphsPerHome), p.rounds, p.pairs)
	return sys, nil
}

// ---- the serving tier, as deployed --------------------------------------

// stack is a trained System behind fexiot.Serve on a loopback port, with
// one keep-alive HTTP connection per load-generator worker.
type stack struct {
	sys     *fexiot.System
	srv     *fexiot.Server
	url     string
	conns   []*http.Client
	scraper *http.Client
}

// workerCount is the load generator's goroutine and connection count: two,
// so a request can queue behind another (head-of-line blocking needs that)
// while everything still shares the benchmark's one P (see main).
func workerCount() int { return 2 }

func startStack(d dims, p trainPlan) (*stack, error) {
	sys, err := newSystem(d, p, obs.NewRegistry())
	if err != nil {
		return nil, err
	}
	srv, err := fexiot.Serve(context.Background(), sys, fexiot.ServeOptions{Addr: "127.0.0.1:0"})
	if err != nil {
		return nil, err
	}
	st := &stack{sys: sys, srv: srv, url: "http://" + srv.Addr(), scraper: oneConnClient()}
	for i := 0; i < workerCount(); i++ {
		st.conns = append(st.conns, oneConnClient())
	}
	return st, nil
}

func oneConnClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1,
			DisableCompression: true},
	}
}

func (st *stack) close() {
	for _, c := range append(st.conns, st.scraper) {
		c.CloseIdleConnections()
	}
	st.srv.Close()
}

// do sends one request on worker w's connection and returns status and
// body. A transport error reads as status 0.
func (st *stack) do(w int, method, path, contentType string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, st.url+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := st.conns[w].Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, out
}

func (st *stack) scrape() (scrape, error) { return scrapeURL(st.scraper, st.url+"/metrics") }

// finite01 reports a finite probability.
func finite01(x float64) bool { return !math.IsNaN(x) && x >= 0 && x <= 1 }

func finite(xs ...float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}

// detectOK is the correctness gate of every /v1/detect reply.
func detectOK(status int, body []byte) (serve.DetectResponse, bool) {
	var r serve.DetectResponse
	if status != http.StatusOK || json.Unmarshal(body, &r) != nil {
		return r, false
	}
	return r, finite01(r.Score) && finite(r.DriftScore) && r.Nodes >= 1 && r.SnapshotSeq >= 1
}

// explainOK is the correctness gate of every /v1/explain reply.
func explainOK(status int, body []byte) bool {
	var r serve.ExplainResponse
	if status != http.StatusOK || json.Unmarshal(body, &r) != nil {
		return false
	}
	return len(r.NodeIndices) >= 1 && finite(r.Score, r.Fidelity, r.Sparsity) && r.SnapshotSeq >= 1
}

// ---- the same layers, callable one by one -------------------------------

// kit assembles the pipeline from the internal packages with the recipe
// fexiot.New + TrainCentral + Serve use, keeping a handle on every layer:
// the traced replay times calls into these. It is seeded like the facade
// (systemSeed), so a kit and a stack hold the same model.
type kit struct {
	reg     *obs.Registry
	builder *fusion.Builder
	model   gnn.Model
	det     *gnn.Detector
	snap    *serve.Snapshot
	eng     *serve.Engine
	mgr     *stream.Manager
	train   []*graph.Graph
}

// newKit builds and trains the layers. It installs its own registry as the
// process-wide kernel instrumentation (mat.InstrumentKernels is global),
// so build a kit only after any stack whose /metrics you still need.
func newKit(d dims, p trainPlan) *kit {
	const seed = systemSeed
	k := &kit{reg: obs.NewRegistry()}
	mat.InstrumentKernels(k.reg)
	enc := embed.NewEncoder(d.word, d.sentence)
	k.builder = fusion.NewBuilder(seed, enc)
	k.model = gnn.NewGIN(fusion.WordFeatureDim(enc), d.hidden, d.embed, 100+seed)
	k.train = trainingGraphs(k.buildOffline, seed, p.homes, p.rulesPerHome, p.graphsPerHome)

	cfg := gnn.DefaultTrainConfig(seed)
	cfg.LR = 0.005
	cfg.PairsPerEpoch = p.pairs
	cfg.Metrics = k.reg
	opt := autodiff.NewAdam(cfg.LR)
	opt.WeightDecay = 1e-4
	for r := 0; r < p.rounds; r++ {
		cfg.Seed = seed + int64(r)
		gnn.TrainContrastive(k.model, k.train, cfg, opt)
	}
	k.det = gnn.NewDetector(k.model, 3)
	k.det.FitClassifier(k.train)
	labels := make([]int, len(k.train))
	for i, g := range k.train {
		if g.Label {
			labels[i] = 1
		}
	}
	drf := drift.Fit(gnn.EmbedAll(k.model, k.train), labels)
	k.snap = serve.NewSnapshot(1, k.det, drf, explain.DefaultSearchConfig(seed))
	k.eng = serve.NewEngine(serve.Options{Metrics: k.reg})
	k.eng.Publish(k.snap)
	k.mgr = stream.NewManager(k.eng, func(rs []*rules.Rule, log eventlog.Log) (*graph.Graph, error) {
		return k.builder.BuildOnline(rs, log), nil
	}, stream.Options{Metrics: k.reg, CacheStats: k.builder.FeatureCacheStats})
	return k
}

// buildOffline is System.BuildGraph.
func (k *kit) buildOffline(rs []*rules.Rule) *graph.Graph {
	size := len(rs)
	if size > 50 {
		size = 50
	}
	return k.builder.Offline(rs, size)
}

func (k *kit) close() {
	k.mgr.Shutdown()
	k.eng.Close()
	mat.InstrumentKernels(nil)
}

// counters reads the kit registry the way a /metrics scrape would.
func (k *kit) counters() scrape {
	var b bytes.Buffer
	k.reg.WritePrometheus(&b) // writes to a buffer cannot fail
	s, err := parseScrape(&b)
	if err != nil {
		panic(fmt.Sprintf("bench: own registry does not parse: %v", err))
	}
	return s
}
