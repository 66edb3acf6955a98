package fed

import "fexiot/internal/mat"

// --- FedAvg ----------------------------------------------------------------

// FedAvg is classic federated averaging (McMahan et al.): every round each
// client trains locally and the server replaces every model with the
// data-weighted mean.
type FedAvg struct{}

// Name identifies the algorithm.
func (FedAvg) Name() string { return "FedAvg" }

// Run executes federated averaging.
func (FedAvg) Run(clients []*Client, cfg Config) *Result {
	res := &Result{FinalClusters: uniformClusters(len(clients))}
	sm := newSimMetrics(cfg.Metrics)
	all := indexRange(len(clients))
	sizes := trainSizes(clients)
	modelParams := clients[0].Model.Params().NumElements()
	for r := 0; r < cfg.Rounds; r++ {
		localTrainAll(clients, cfg.roundTrain(r))
		avg := clients[0].Model.Params().Clone()
		AggregateParams(aggregatorOr(cfg.Aggregator), avg, paramsOf(clients, all), QuorumWeights(sizes, all))
		for _, c := range clients {
			c.Model.Params().CopyFrom(avg)
		}
		// Full model up and down for every client.
		roundBytes := int64(len(clients)) * bytesFor(modelParams) * 2
		res.Comm.UploadBytes += int64(len(clients)) * bytesFor(modelParams)
		res.Comm.DownloadBytes += int64(len(clients)) * bytesFor(modelParams)
		info := RoundInfo{Round: r, NumClusters: 1, CommBytes: roundBytes}
		res.Rounds = append(res.Rounds, info)
		sm.record(info)
	}
	res.Comm.Rounds = cfg.Rounds
	return res
}

// --- Isolated clients --------------------------------------------------------

// ClientOnly trains every client locally with no communication (the
// "Client" baseline of Fig. 4).
type ClientOnly struct{}

// Name identifies the algorithm.
func (ClientOnly) Name() string { return "Client" }

// Run trains clients in isolation.
func (ClientOnly) Run(clients []*Client, cfg Config) *Result {
	res := &Result{FinalClusters: indexRange(len(clients))}
	sm := newSimMetrics(cfg.Metrics)
	for r := 0; r < cfg.Rounds; r++ {
		localTrainAll(clients, cfg.roundTrain(r))
		info := RoundInfo{Round: r, NumClusters: len(clients)}
		res.Rounds = append(res.Rounds, info)
		sm.record(info)
	}
	res.Comm.Rounds = cfg.Rounds
	return res
}

// --- Clustered baselines ------------------------------------------------------

// clusteredFL factors the shared mechanics of FMTL and GCFL+: whole-model
// aggregation within a dynamically refined partition of the clients.
type clusteredFL struct {
	name string
	// signal extracts the vector the algorithm clusters on.
	signal func(c *Client) []float64
}

// FMTL is clustered federated multi-task learning (Sattler et al.): the
// split signal is the latest whole-model weight-update direction (a
// geometric property of the loss surface at the stationary point).
func FMTL() Algorithm {
	return &clusteredFL{
		name:   "FMTL",
		signal: func(c *Client) []float64 { return c.Update().Flatten() },
	}
}

// GCFL is GCFL+ (Xie et al.): clustering on smoothed gradient sequences —
// each client keeps a moving window of updates and clusters on the window
// mean, damping the oscillation of any single round.
func GCFL() Algorithm {
	windows := map[int][][]float64{}
	return &clusteredFL{
		name: "GCFL+",
		signal: func(c *Client) []float64 {
			u := c.Update().Flatten()
			w := append(windows[c.ID], u)
			if len(w) > 3 {
				w = w[len(w)-3:]
			}
			windows[c.ID] = w
			mean := make([]float64, len(u))
			for _, v := range w {
				mat.Axpy(mean, v, 1/float64(len(w)))
			}
			return mean
		},
	}
}

// Name identifies the algorithm.
func (a *clusteredFL) Name() string { return a.name }

// Run executes clustered whole-model FL.
func (a *clusteredFL) Run(clients []*Client, cfg Config) *Result {
	res := &Result{}
	sm := newSimMetrics(cfg.Metrics)
	modelParams := clients[0].Model.Params().NumElements()
	clusters := [][]int{indexRange(len(clients))}
	sizes := trainSizes(clients)
	for r := 0; r < cfg.Rounds; r++ {
		localTrainAll(clients, cfg.roundTrain(r))
		signals := make([][]float64, len(clients))
		updates := make([][]float64, len(clients))
		for i, c := range clients {
			signals[i] = a.signal(c)
			updates[i] = c.Update().Flatten()
		}
		var next [][]int
		for _, cluster := range clusters {
			// Eq. (3) on the whole-model updates within the cluster.
			if updateGate(at(updates), cluster, sizes, cfg.Eps1, cfg.Eps2) {
				c1, c2 := binaryCluster(at(signals), cluster)
				if len(c2) > 0 {
					next = append(next, c1, c2)
					continue
				}
			}
			next = append(next, cluster)
		}
		clusters = next
		for _, cluster := range clusters {
			avg := clients[cluster[0]].Model.Params().Clone()
			AggregateParams(aggregatorOr(cfg.Aggregator), avg, paramsOf(clients, cluster), QuorumWeights(sizes, cluster))
			for _, i := range cluster {
				clients[i].Model.Params().CopyFrom(avg)
			}
		}
		roundBytes := int64(len(clients)) * bytesFor(modelParams) * 2
		res.Comm.UploadBytes += int64(len(clients)) * bytesFor(modelParams)
		res.Comm.DownloadBytes += int64(len(clients)) * bytesFor(modelParams)
		info := RoundInfo{Round: r, NumClusters: len(clusters), CommBytes: roundBytes}
		res.Rounds = append(res.Rounds, info)
		sm.record(info)
	}
	res.Comm.Rounds = cfg.Rounds
	res.FinalClusters = clusterAssignment(len(clients), clusters)
	return res
}

// --- Shared helpers ------------------------------------------------------------

func uniformClusters(n int) []int { return make([]int, n) }

// at adapts a per-client vector table to the accessor form updateGate and
// binaryCluster take.
func at(vecs [][]float64) func(i int) []float64 {
	return func(i int) []float64 { return vecs[i] }
}

func clusterAssignment(n int, clusters [][]int) []int {
	out := make([]int, n)
	for cid, cluster := range clusters {
		for _, i := range cluster {
			out[i] = cid
		}
	}
	return out
}
