package fed

import (
	"fexiot/internal/mat"
	"fexiot/internal/obs"
)

// Algorithm is a federated training strategy over a fixed client
// population. Every algorithm runs the same round (Run); what tells them
// apart is the combine step that follows local training.
type Algorithm struct {
	name string
	// start begins one run over n clients: the starting partition, which a
	// run of 0 rounds reports, and the combine step holding the run's state.
	start func(n int) ([][]int, combine)
}

// combine is one round's server step after local training: it writes every
// client's new weights and returns the round's clusters and the bytes the
// round moved, given the previous round's clusters.
type combine func(clients []*Client, clusters [][]int, cfg Config) ([][]int, int64)

// Name identifies the algorithm.
func (a Algorithm) Name() string { return a.name }

// Run trains the clients in place for cfg.Rounds rounds. Every round is
// local training on every client, the algorithm's combine step, then the
// round's telemetry; the final partition is recorded once, after the last
// round.
func (a Algorithm) Run(clients []*Client, cfg Config) *Result {
	sm := newSimMetrics(cfg.Metrics)
	clusters, step := a.start(len(clients))
	res := &Result{}
	for r := 0; r < cfg.Rounds; r++ {
		sp := obs.StartSpan(sm.roundDur)
		localTrainAll(clients, cfg.roundTrain(r))
		var bytes int64
		clusters, bytes = step(clients, clusters, cfg)
		sp.End()
		sm.rounds.Inc()
		sm.comm.Add(bytes)
		sm.clusters.Set(float64(len(clusters)))
		res.CommBytes += bytes
	}
	res.FinalClusters = make([]int, len(clients))
	for cid, cluster := range clusters {
		for _, i := range cluster {
			res.FinalClusters[i] = cid
		}
	}
	return res
}

// ClientOnly trains every client locally with no communication (the
// "Client" baseline of Fig. 4): every client is its own cluster.
func ClientOnly() Algorithm {
	return Algorithm{name: "Client", start: func(n int) ([][]int, combine) {
		singles := make([][]int, n)
		for i := range singles {
			singles[i] = []int{i}
		}
		return singles, func(_ []*Client, clusters [][]int, _ Config) ([][]int, int64) {
			return clusters, 0
		}
	}}
}

// FedAvg is classic federated averaging (McMahan et al.): every round the
// server replaces every model with the data-weighted aggregate. It is
// whole-model FL with no split signal, so its one cluster never splits.
func FedAvg() Algorithm { return wholeModel("FedAvg", 0) }

// FMTL is clustered federated multi-task learning (Sattler et al.): the
// split signal is the latest whole-model update direction (a geometric
// property of the loss surface at the stationary point).
func FMTL() Algorithm { return wholeModel("FMTL", 1) }

// GCFL is GCFL+ (Xie et al.): clustering on smoothed gradient sequences —
// the split signal is the mean of a client's last three whole-model
// updates, damping the oscillation of any single round.
func GCFL() Algorithm { return wholeModel("GCFL+", 3) }

// wholeModel is clustered whole-model FL: every cluster aggregates the
// whole model, and a cluster splits when the Eq. (3) gate fires on its
// members' whole-model updates, bipartitioned by the mean of each client's
// last window updates. A window of 0 never splits.
func wholeModel(name string, window int) Algorithm {
	return Algorithm{name: name, start: func(n int) ([][]int, combine) {
		recent := make([][][]float64, n) // client → its last window updates
		return [][]int{indexRange(n)}, func(clients []*Client, clusters [][]int, cfg Config) ([][]int, int64) {
			sizes := trainSizes(clients)
			if window > 0 {
				signals := make([][]float64, len(clients))
				updates := make([][]float64, len(clients))
				for i, c := range clients {
					u := c.Update().Data()
					updates[i] = u
					w := append(recent[i], u)
					if len(w) > window {
						w = w[len(w)-window:]
					}
					recent[i] = w
					signals[i] = make([]float64, len(u))
					for _, v := range w {
						mat.Axpy(signals[i], v, 1/float64(len(w)))
					}
				}
				var next [][]int
				var mean []float64
				for _, cluster := range clusters {
					if updateGate(at(updates), cluster, sizes, cfg.Eps1, cfg.Eps2, &mean) {
						if c1, c2 := binaryCluster(at(signals), cluster); len(c2) > 0 {
							next = append(next, c1, c2)
							continue
						}
					}
					next = append(next, cluster)
				}
				clusters = next
			}
			agg := aggregatorOr(cfg.Aggregator)
			for _, cluster := range clusters {
				avg := clients[cluster[0]].Model.Params()
				AggregateParams(agg, avg, paramsOf(clients, cluster), QuorumWeights(sizes, cluster))
				for _, i := range cluster[1:] {
					clients[i].Model.Params().CopyFrom(avg)
				}
			}
			// The full model up and down for every client.
			return clusters, 2 * int64(len(clients)) * bytesFor(clients[0].Model.Params().NumElements())
		}
	}}
}

// at adapts a per-client vector table to the accessor form updateGate and
// binaryCluster take.
func at(vecs [][]float64) func(i int) []float64 {
	return func(i int) []float64 { return vecs[i] }
}
