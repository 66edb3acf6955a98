// Package fed implements the federated learning layer of FexIoT: the client
// and server roles, the paper's dynamic layer-wise clustering-based
// aggregation (Algorithm 1), the comparison baselines of Fig. 4 (FedAvg,
// FMTL, GCFL+ and isolated per-client training), the Dirichlet non-i.i.d.
// data splitter of the evaluation, and communication-cost accounting for
// Fig. 7.
package fed

import (
	"fexiot/internal/autodiff"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/ml"
	"fexiot/internal/obs"
)

// Client is one household participating in federated training. It owns a
// local graph dataset, a local copy of the representation model with its
// optimiser state, and the local linear classification head of §III-B1.
type Client struct {
	ID    int
	Model gnn.Model
	Train []*graph.Graph
	Opt   *autodiff.Adam

	// prev snapshots the weights before the most recent local training, so
	// the server can inspect update directions ΔW.
	prev *autodiff.ParamSet
	// byz, when set, corrupts every update before the server sees it
	// (installed by MakeByzantine) — the simulated attacker of the
	// robustness evaluation.
	byz Attack
}

// NewClient builds a client around a fresh model instance.
func NewClient(id int, model gnn.Model, train []*graph.Graph, lr float64) *Client {
	return &Client{ID: id, Model: model, Train: train, Opt: autodiff.NewAdam(lr)}
}

// NewClients spawns one client per dataset, all starting from the weights
// of base — federated averaging only makes sense from a common
// initialisation.
func NewClients(base gnn.Model, datasets [][]*graph.Graph, lr float64) []*Client {
	out := make([]*Client, len(datasets))
	for i, ds := range datasets {
		m := base.Fresh(int64(i))
		m.Params().CopyFrom(base.Params())
		out[i] = NewClient(i, m, ds, lr)
	}
	return out
}

// localTrainAll runs one round of local training on every client in
// parallel (clients are independent during the local phase), bounded by
// the shared mat parallelism bound (mat.SetParallelism).
func localTrainAll(clients []*Client, cfg gnn.TrainConfig) {
	mat.ParallelFor(len(clients), func(i int) {
		clients[i].LocalTrain(cfg)
	})
}

// LocalTrain runs one round of local contrastive training (line 3 of
// Algorithm 1) and records the update.
func (c *Client) LocalTrain(cfg gnn.TrainConfig) {
	c.prev = c.Model.Params().Clone()
	cfg.Seed = cfg.Seed*1000003 + int64(c.ID)
	gnn.TrainContrastive(c.Model, c.Train, cfg, c.Opt)
	if c.byz != nil {
		c.byz.Corrupt(c.prev, c.Model.Params())
	}
}

// Update returns ΔW = W_after − W_before of the latest local training.
func (c *Client) Update() *autodiff.ParamSet {
	if c.prev == nil {
		return c.Model.Params().Clone()
	}
	return c.Model.Params().Sub(c.prev)
}

// FitLocalClassifier trains the client's SGD head on local embeddings and
// returns the resulting detector.
func (c *Client) FitLocalClassifier(seed int64) *gnn.Detector {
	d := gnn.NewDetector(c.Model, seed)
	d.FitClassifier(c.Train)
	return d
}

// EvaluateClient trains the local head and evaluates on test graphs.
func EvaluateClient(c *Client, test []*graph.Graph, seed int64) ml.Metrics {
	d := c.FitLocalClassifier(seed)
	return gnn.EvaluateDetector(d, test)
}

// bytesFor counts the wire size of n float64 parameters.
func bytesFor(nParams int) int64 { return int64(nParams) * 8 }

// Result is the outcome of a federated training run.
type Result struct {
	// CommBytes is the run's communication cost, upload plus download.
	CommBytes int64
	// FinalClusters maps client index → cluster id after the last round
	// (for FexIoT, the bottom-layer leaves); a run of 0 rounds reports the
	// algorithm's starting partition.
	FinalClusters []int
}

// Config holds shared federated training settings.
type Config struct {
	Rounds int
	Train  gnn.TrainConfig
	// Eps1 and Eps2 are the thresholds ε1, ε2 of Eq. (3) gating the
	// clustering decision.
	Eps1, Eps2 float64
	Seed       int64
	// Aggregator combines client models each round. Nil selects the classic
	// FedAvg weighted mean; the robust alternatives (trimmed mean, median,
	// norm-clipped mean, Krum) bound the damage Byzantine clients can do.
	Aggregator Aggregator
	// Metrics, when non-nil, receives simulator telemetry (per-round
	// communication bytes, cluster counts, round durations) and is
	// propagated into every client's local training config. Nil keeps the
	// simulator on the zero-overhead path.
	Metrics *obs.Registry
}

// roundTrain derives round r's local training config: the round-keyed seed
// plus the federation's observability registry.
func (c Config) roundTrain(r int) gnn.TrainConfig {
	t := c.Train
	t.Seed = c.Seed + int64(r)
	t.Metrics = c.Metrics
	return t
}

// simMetrics are the nil-gated telemetry handles of the in-process
// federated simulator.
type simMetrics struct {
	rounds   *obs.Counter   // fexiot_sim_rounds_total
	comm     *obs.Counter   // fexiot_sim_comm_bytes_total
	clusters *obs.Gauge     // fexiot_sim_clusters
	roundDur *obs.Histogram // fexiot_sim_round_duration_seconds
}

// newSimMetrics resolves the handles; a nil registry yields nil handles and
// every telemetry call collapses to a nil check.
func newSimMetrics(r *obs.Registry) simMetrics {
	return simMetrics{
		rounds:   r.Counter("fexiot_sim_rounds_total", "federated simulator rounds completed"),
		comm:     r.Counter("fexiot_sim_comm_bytes_total", "simulated federation communication cost (upload + download bytes)"),
		clusters: r.Gauge("fexiot_sim_clusters", "client clusters at the bottom layer after the most recent round"),
		roundDur: r.Histogram("fexiot_sim_round_duration_seconds", "wall time of one simulated federated round (local training + aggregation)", nil),
	}
}

// DefaultConfig mirrors the paper's settings (ε1 = 1.2, ε2 = 0.8, Adam with
// lr 0.001 — §IV-C).
func DefaultConfig(seed int64) Config {
	return Config{
		Rounds: 20,
		Train:  gnn.DefaultTrainConfig(seed),
		// Relative reinterpretation of the paper's ε1=1.2, ε2=0.8 (§IV-C):
		// split when the aggregated update direction is much smaller than
		// the average individual update while someone still moves.
		Eps1: 0.4,
		Eps2: 0.95,
		Seed: seed,
	}
}

// QuorumWeights returns the FedAvg weights |G_i|/Σ|G| over the idx subset
// of sizes; a zero total degrades to uniform weights. It is the single
// weighting rule shared by the in-process simulator and the networked
// fedproto server, so quorum rounds that aggregate only the surviving
// subset of clients weight them exactly as the simulation would. The sum
// runs in float64, exact below 2^53 and immune to int overflow on sizes a
// remote client announced.
func QuorumWeights(sizes []int, idx []int) []float64 {
	total := 0.0
	for _, i := range idx {
		total += float64(sizes[i])
	}
	w := make([]float64, len(idx))
	for k, i := range idx {
		if total == 0 {
			w[k] = 1 / float64(len(idx))
		} else {
			w[k] = float64(sizes[i]) / total
		}
	}
	return w
}

// trainSizes returns |G_c| per client.
func trainSizes(clients []*Client) []int {
	sizes := make([]int, len(clients))
	for i, c := range clients {
		sizes[i] = len(c.Train)
	}
	return sizes
}

// paramsOf collects the parameter sets of a client subset.
func paramsOf(clients []*Client, idx []int) []*autodiff.ParamSet {
	out := make([]*autodiff.ParamSet, len(idx))
	for k, i := range idx {
		out[k] = clients[i].Model.Params()
	}
	return out
}
