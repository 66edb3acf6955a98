// Package fexiot is the public API of the FexIoT reproduction: a federated,
// explicable GNN system for IoT interaction vulnerability analysis (Wang et
// al., ICDE 2023). It wraps the internal substrates behind a small facade:
//
//	sys, err := fexiot.New(fexiot.DefaultOptions())
//	g := sys.BuildGraph(deployedRules)          // offline interaction graph
//	sys.TrainCentral(trainingGraphs, 8, 120)    // or TrainFederated(...)
//	verdict, err := sys.Detect(g)               // vulnerability verdict
//	expl, err := sys.Explain(g)                 // responsible subgraph
//
// Detect, Explain and Evaluate fail with ErrNotTrained (not a panic) until
// one of the training entry points has installed a detector. New validates
// its Options and rejects unknown models and non-positive dimensions:
// start from DefaultOptions and override, rather than guessing which zero
// values are meaningful.
//
// The examples/ directory contains runnable walkthroughs and cmd/fexbench
// regenerates every table and figure of the paper's evaluation.
package fexiot

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"fexiot/internal/autodiff"
	"fexiot/internal/drift"
	"fexiot/internal/embed"
	"fexiot/internal/eventlog"
	"fexiot/internal/explain"
	"fexiot/internal/fed"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/ml"
	"fexiot/internal/obs"
	"fexiot/internal/rules"
	"fexiot/internal/serve"
	"fexiot/internal/stream"
)

// Re-exported core types so callers only import this package for common
// workflows.
type (
	// Rule is a trigger-action automation rule.
	Rule = rules.Rule
	// Graph is an IoT interaction graph.
	Graph = graph.Graph
	// Log is a device event log.
	Log = eventlog.Log
	// Metrics bundles accuracy/precision/recall/F1.
	Metrics = ml.Metrics
)

// Options configures a System. Build it with DefaultOptions and override
// the fields you care about; New rejects non-positive dimensions and
// unknown model names instead of silently substituting defaults.
type Options struct {
	// WordDim and SentenceDim size the text encoders (DefaultOptions picks
	// compact dims suitable for laptops; the paper used 300/512).
	WordDim     int
	SentenceDim int
	// Hidden and EmbedDim size the GNN.
	Hidden   int
	EmbedDim int
	// Model selects the representation network: "GIN", "GCN" or "MAGNN"
	// (empty selects GIN).
	Model string
	// Seed makes every component deterministic.
	Seed int64
	// Metrics, when non-nil, instruments the whole pipeline — training,
	// federation and the dense kernels — into the given observability
	// registry (serve it with obs.StartHTTP). Nil disables instrumentation
	// at unmeasurable cost.
	Metrics *obs.Registry
}

// DefaultOptions returns the documented defaults: a compact GIN sized for
// laptops, seed 1. Callers introspect and override fields rather than
// relying on zero values being patched up.
func DefaultOptions() Options {
	return Options{
		WordDim:     48,
		SentenceDim: 64,
		Hidden:      24,
		EmbedDim:    16,
		Model:       "GIN",
		Seed:        1,
	}
}

// validate rejects option sets New must not build from.
func (o Options) validate() error {
	switch o.Model {
	case "", "GIN", "GCN", "MAGNN":
	default:
		return fmt.Errorf("fexiot: unknown model %q (valid: GIN, GCN, MAGNN)", o.Model)
	}
	if o.WordDim < 1 || o.SentenceDim < 1 || o.Hidden < 1 || o.EmbedDim < 1 {
		return fmt.Errorf("fexiot: dimensions must be positive "+
			"(WordDim=%d SentenceDim=%d Hidden=%d EmbedDim=%d); start from DefaultOptions",
			o.WordDim, o.SentenceDim, o.Hidden, o.EmbedDim)
	}
	return nil
}

// System is the assembled FexIoT pipeline: data fusion, detection and
// explanation.
//
// The inference state lives in an immutable snapshot behind an atomic
// pointer: Detect/Explain/Evaluate load the pointer once and run entirely
// on that frozen model, while the training entry points build a complete
// new snapshot and swap it in. Training and serving may therefore run
// concurrently from any number of goroutines — a request never observes a
// half-trained model.
type System struct {
	opts    Options
	encoder *embed.Encoder
	builder *fusion.Builder

	// state is the live frozen snapshot (nil until trained); seq stamps
	// each published snapshot monotonically.
	state atomic.Pointer[serve.Snapshot]
	seq   atomic.Uint64

	mu      sync.Mutex
	engines []*serve.Engine // serving engines receiving every publish
}

// New assembles a system, or reports why the options cannot be built.
func New(opts Options) (*System, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if opts.Metrics != nil {
		mat.InstrumentKernels(opts.Metrics)
	}
	enc := embed.NewEncoder(opts.WordDim, opts.SentenceDim)
	return &System{
		opts:    opts,
		encoder: enc,
		builder: fusion.NewBuilder(opts.Seed, enc),
	}, nil
}

// newModel instantiates the configured GNN.
func (s *System) newModel(seed int64) gnn.Model {
	wordDim := s.encoder.WordDim() + 2*fusion.SigDim
	sentDim := s.encoder.SentenceDim() + 2*fusion.SigDim
	switch s.opts.Model {
	case "GCN":
		return gnn.NewGCN(wordDim, s.opts.Hidden, s.opts.EmbedDim, seed)
	case "MAGNN":
		return gnn.NewMAGNN(wordDim, sentDim, s.opts.Hidden, s.opts.EmbedDim, seed)
	default:
		return gnn.NewGIN(wordDim, s.opts.Hidden, s.opts.EmbedDim, seed)
	}
}

// BuildGraph chains deployed rules into an offline interaction graph
// (§III-A3) and labels it with the ground-truth detectors.
func (s *System) BuildGraph(deployed []*Rule) *Graph {
	size := len(deployed)
	if size > 50 {
		size = 50
	}
	return s.builder.Offline(deployed, size)
}

// BuildOnlineGraph fuses a cleaned event log with the deployed rules into
// an online interaction graph.
func (s *System) BuildOnlineGraph(deployed []*Rule, log Log) *Graph {
	return s.builder.BuildOnline(deployed, log)
}

// CleanLog applies §III-A2 log cleaning (error removal, duplicate
// collapsing, Jenks numeric→logical conversion).
func CleanLog(log Log) Log { return eventlog.Clean(log) }

// SimulateHome runs the discrete-event simulator over deployed rules for
// the given number of simulated seconds and returns the raw event log.
func SimulateHome(deployed []*Rule, steps int64, seed int64) Log {
	return eventlog.NewSimulator(deployed, seed).Run(steps)
}

// TrainCentral trains the detection pipeline centrally on labelled graphs
// (contrastive representation + linear head), for rounds×pairsPerRound
// contrastive pairs.
func (s *System) TrainCentral(graphs []*Graph, rounds, pairsPerRound int) {
	m := s.newModel(100 + s.opts.Seed)
	cfg := gnn.DefaultTrainConfig(s.opts.Seed)
	cfg.LR = 0.005
	cfg.PairsPerEpoch = pairsPerRound
	cfg.Metrics = s.opts.Metrics
	opt := autodiff.NewAdam(cfg.LR)
	opt.WeightDecay = 1e-4
	for r := 0; r < rounds; r++ {
		cfg.Seed = s.opts.Seed + int64(r)
		gnn.TrainContrastive(m, graphs, cfg, opt)
	}
	det := gnn.NewDetector(m, 3)
	s.install(det, fitDrift(det.FitClassifier(graphs), graphs))
}

// FederatedAlgorithm names a federated training strategy.
type FederatedAlgorithm string

// The five Fig. 4 strategies.
const (
	AlgoFexIoT FederatedAlgorithm = "fexiot"
	AlgoGCFL   FederatedAlgorithm = "gcfl+"
	AlgoFMTL   FederatedAlgorithm = "fmtl"
	AlgoFedAvg FederatedAlgorithm = "fedavg"
	AlgoClient FederatedAlgorithm = "client"
)

func (a FederatedAlgorithm) build() (fed.Algorithm, error) {
	switch a {
	case AlgoFexIoT, "":
		return fed.FexIoT(), nil
	case AlgoGCFL:
		return fed.GCFL(), nil
	case AlgoFMTL:
		return fed.FMTL(), nil
	case AlgoFedAvg:
		return fed.FedAvg(), nil
	case AlgoClient:
		return fed.ClientOnly(), nil
	default:
		return fed.Algorithm{}, fmt.Errorf("fexiot: unknown federated algorithm %q", a)
	}
}

// FederatedResult reports a federated training run.
type FederatedResult struct {
	// TransferredBytes is the total communication cost.
	TransferredBytes int64
	// Clusters is the final client→cluster assignment.
	Clusters []int
}

// TrainFederated trains across client datasets with the selected algorithm
// (paper's Algorithm 1 by default) and installs client 0's model as the
// system detector. The per-client detectors are returned via the clients'
// own heads when needed; use the experiments package for full Fig. 4 style
// evaluation. It fails, and leaves the system as it was, when clientData
// holds no client.
func (s *System) TrainFederated(clientData [][]*Graph, algo FederatedAlgorithm,
	rounds int) (*FederatedResult, error) {
	a, err := algo.build()
	if err != nil {
		return nil, err
	}
	if len(clientData) == 0 {
		return nil, errors.New("fexiot: federated training needs at least one client dataset")
	}
	base := s.newModel(100 + s.opts.Seed)
	clients := fed.NewClients(base, clientData, 0.005)
	cfg := fed.DefaultConfig(s.opts.Seed)
	cfg.Rounds = rounds
	cfg.Metrics = s.opts.Metrics
	res := a.Run(clients, cfg)

	var all []*Graph
	for _, ds := range clientData {
		all = append(all, ds...)
	}
	det := gnn.NewDetector(clients[0].Model, 3)
	s.install(det, fitDrift(det.FitClassifier(all), all))
	return &FederatedResult{
		TransferredBytes: res.CommBytes,
		Clusters:         res.FinalClusters,
	}, nil
}

// fitDrift fits the MAD drift detector on the training graphs' embeddings,
// the ones FitClassifier computed for the same model.
func fitDrift(emb [][]float64, graphs []*Graph) *drift.Detector {
	labels := make([]int, len(graphs))
	for i, g := range graphs {
		if g.Label {
			labels[i] = 1
		}
	}
	return drift.Fit(emb, labels)
}

// install deep-freezes a freshly trained detector into a snapshot, swaps
// it live and fans it out to every attached serving engine. Training
// mutates only its own locals up to this point, so the swap is the single
// linearisation point between training and serving.
func (s *System) install(det *gnn.Detector, drf *drift.Detector) {
	snap := serve.NewSnapshot(s.seq.Add(1), det, drf,
		explain.DefaultSearchConfig(s.opts.Seed))
	s.state.Store(snap)
	s.mu.Lock()
	engines := append([]*serve.Engine(nil), s.engines...)
	s.mu.Unlock()
	for _, e := range engines {
		e.Publish(snap)
	}
}

// attach registers a serving engine to receive every future snapshot,
// seeding it with the current one when the system is already trained.
func (s *System) attach(e *serve.Engine) {
	s.mu.Lock()
	s.engines = append(s.engines, e)
	s.mu.Unlock()
	if snap := s.state.Load(); snap != nil {
		e.Publish(snap)
	}
}

// Verdict is a detection outcome (see serve.Verdict for field docs: score,
// drift deviation and the MAD-threshold drift flag).
type Verdict = serve.Verdict

// ErrNotTrained reports a detection, explanation or evaluation request
// against a system with no installed detector. Test with errors.Is; train
// via TrainCentral or TrainFederated to clear it.
var ErrNotTrained = errors.New("fexiot: system not trained; call TrainCentral or TrainFederated first")

// errEmptyGraph reports a detection or evaluation request for a graph with
// no nodes, which the model's readout cannot pool — the online graph of a
// log in which no deployed rule ran, for one.
var errEmptyGraph = errors.New("fexiot: graph has no nodes")

// Detect classifies an interaction graph. It fails with ErrNotTrained
// until the system has been trained, and for a graph with no nodes. The
// verdict is computed entirely on one frozen snapshot, so Detect is safe
// to call concurrently with training and with other requests.
func (s *System) Detect(g *Graph) (Verdict, error) {
	snap := s.state.Load()
	if snap == nil {
		return Verdict{}, ErrNotTrained
	}
	if g.N() == 0 {
		return Verdict{}, errEmptyGraph
	}
	return snap.Detect(g), nil
}

// Explanation is a detected root-cause subgraph (see serve.Explanation).
type Explanation = serve.Explanation

// Explain runs the SHAP-guided Monte Carlo beam search (Algorithm 2) on a
// graph and returns the highest-risk connected subgraph. It fails with
// ErrNotTrained until the system has been trained, and — like Detect —
// runs on one frozen snapshot, so concurrent calls with identical inputs
// return identical explanations.
func (s *System) Explain(g *Graph) (Explanation, error) {
	snap := s.state.Load()
	if snap == nil {
		return Explanation{}, ErrNotTrained
	}
	return snap.Explain(g), nil
}

// Evaluate computes detection metrics over labelled graphs. It fails with
// ErrNotTrained until the system has been trained, and when any graph has
// no nodes.
func (s *System) Evaluate(graphs []*Graph) (Metrics, error) {
	snap := s.state.Load()
	if snap == nil {
		return Metrics{}, ErrNotTrained
	}
	for i, g := range graphs {
		if g.N() == 0 {
			return Metrics{}, fmt.Errorf("graph %d: %w", i, errEmptyGraph)
		}
	}
	return snap.Evaluate(graphs), nil
}

// ServeOptions configures fexiot.Serve. The zero value serves on an
// ephemeral port with worker count following the process's parallelism
// bound.
type ServeOptions struct {
	// Addr is the HTTP listen address (empty or ":0" picks a free port).
	Addr string
	// Workers bounds concurrent inference goroutines (0 = the process's
	// parallelism bound, mat.Parallelism: GOMAXPROCS unless
	// mat.SetParallelism changed it).
	Workers int
	// QueueDepth bounds pending requests (0 = 4 × Workers); a request
	// arriving at a full queue is shed at once — HTTP 429 with a
	// Retry-After hint — rather than parked until its deadline.
	QueueDepth int
	// RequestTimeout bounds each HTTP request's queue wait + inference
	// (0 = 30s).
	RequestTimeout time.Duration
	// MaxBodyBytes bounds HTTP request bodies (0 = 1 MiB); oversized
	// payloads fail with 413 before any parsing work.
	MaxBodyBytes int64
	// MaxSnapshotAge, when > 0, gates readiness on snapshot freshness:
	// /readyz fails once the live snapshot is older than this, so an
	// instance whose republisher died stops advertising itself. Zero
	// requires only that some snapshot has been published.
	MaxSnapshotAge time.Duration
	// Streams tunes the stateful streaming sessions under /v1/streams.
	Streams StreamOptions
}

// StreamOptions tunes the streaming detection sessions (see
// internal/stream). Zero values use the documented stream defaults:
// 256 sessions, 4096-event windows, 3600 simulated seconds of age and
// 10-minute idle eviction.
type StreamOptions struct {
	// MaxSessions bounds concurrent sessions; creation beyond it fails
	// with 429 overloaded.
	MaxSessions int
	// MaxWindowEvents bounds each session's sliding window by count.
	MaxWindowEvents int
	// MaxWindowAge bounds the window by event-time age in simulated
	// seconds.
	MaxWindowAge int64
	// IdleTimeout evicts sessions with no ingest or read for this long;
	// the eviction sweep runs every min(15 s, IdleTimeout/4).
	IdleTimeout time.Duration
}

// Server is a running inference endpoint: /v1/detect, /v1/explain,
// /v1/status and the /v1/streams session endpoints mounted beside the
// observability routes (/metrics, /statusz, /debug/pprof/) and the health
// probes (/healthz, /readyz).
type Server struct {
	engine  *serve.Engine
	streams *stream.Manager
	http    *obs.HTTPServer
	health  *obs.Health
}

// Streams reports the number of live streaming sessions.
func (s *Server) Streams() int { return s.streams.Sessions() }

// Health exposes the server's probe set so callers can register extra
// liveness or readiness checks (a supervised republisher, a federation
// link) next to the built-in ones.
func (s *Server) Health() *obs.Health { return s.health }

// Addr reports the resolved listen address (host:port).
func (s *Server) Addr() string { return s.http.Addr() }

// Close shuts the HTTP listener down, closes every streaming session and
// drains the worker pool. It is safe to call more than once.
func (s *Server) Close() error {
	err := s.http.Close()
	s.streams.Shutdown()
	s.engine.Close()
	return err
}

// Serve starts the snapshot-isolated inference engine over sys: requests
// run against the system's current frozen snapshot, and every completed
// training call (TrainCentral, TrainFederated) atomically publishes its
// new model to the running server without a restart or a dropped request.
// The server shuts down when ctx is cancelled (or via Close). Serving
// works on an untrained system — requests fail with 503 (and /readyz
// reports unavailable) until the first training completes; /readyz flips
// to 200 exactly when the first snapshot publishes.
func Serve(ctx context.Context, sys *System, opts ServeOptions) (*Server, error) {
	eng := serve.NewEngine(serve.Options{
		Workers:      opts.Workers,
		QueueDepth:   opts.QueueDepth,
		MaxBodyBytes: opts.MaxBodyBytes,
		Metrics:      sys.opts.Metrics,
	})
	sys.attach(eng)
	timeout := opts.RequestTimeout
	if timeout == 0 {
		timeout = 30 * time.Second
	}
	mux := obs.NewHandler(sys.opts.Metrics)
	eng.Mount(mux, func(rs []*Rule, log Log) (*Graph, error) {
		if len(rs) == 0 {
			return nil, errors.New("fexiot: no rules to fuse")
		}
		if len(log) > 0 {
			return sys.BuildOnlineGraph(rs, log), nil
		}
		return sys.BuildGraph(rs), nil
	}, timeout)
	mgr := stream.NewManager(eng, func(rs []*Rule, log Log) (*Graph, error) {
		return sys.BuildOnlineGraph(rs, log), nil
	}, stream.Options{
		MaxSessions:     opts.Streams.MaxSessions,
		MaxWindowEvents: opts.Streams.MaxWindowEvents,
		MaxWindowAge:    opts.Streams.MaxWindowAge,
		IdleTimeout:     opts.Streams.IdleTimeout,
		MaxBodyBytes:    opts.MaxBodyBytes,
		Metrics:         sys.opts.Metrics,
		CacheStats:      sys.builder.FeatureCacheStats,
	})
	mgr.Mount(mux, timeout)
	eng.MountStatus(mux, serve.StatusInfo{
		NodeFeatureDim: fusion.WordFeatureDim(sys.encoder),
		Sessions:       mgr.Sessions,
	})
	health := obs.NewHealth()
	health.AddLiveness("serve-workers", eng.LiveCheck())
	health.AddReadiness("snapshot", eng.ReadyCheck(opts.MaxSnapshotAge))
	health.Mount(mux)
	addr := opts.Addr
	if addr == "" {
		addr = ":0"
	}
	hs, err := obs.StartHTTPHandler(addr, mux)
	if err != nil {
		mgr.Shutdown()
		eng.Close()
		return nil, fmt.Errorf("fexiot: serve: %w", err)
	}
	srv := &Server{engine: eng, streams: mgr, http: hs, health: health}
	if ctx != nil {
		context.AfterFunc(ctx, func() { srv.Close() })
	}
	return srv, nil
}

// GenerateHome samples a synthetic smart-home rule deployment from the
// built-in archetypes — handy for examples and tests.
func GenerateHome(archetype string, numRules int, seed int64) []*Rule {
	for _, a := range rules.Archetypes() {
		if a.Name == archetype {
			return rules.NewGenerator(seed, a, archetype+"-").RuleSet(numRules)
		}
	}
	archs := rules.Archetypes()
	return rules.NewGenerator(seed, archs[0], "home-").RuleSet(numRules)
}

// ArchetypeNames lists the built-in household archetypes.
func ArchetypeNames() []string {
	var out []string
	for _, a := range rules.Archetypes() {
		out = append(out, a.Name)
	}
	return out
}
