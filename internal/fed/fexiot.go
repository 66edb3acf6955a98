package fed

import (
	"fexiot/internal/mat"
	"fexiot/internal/obs"
)

// FexIoT is the paper's dynamic layer-wise clustering-based federated GNN
// aggregation (Algorithm 1) as an in-process simulation: local training,
// then ClusterRound — the aggregation core shared with the networked
// fedproto server — over every client's weights and ΔW = W − W_before.
//
// Communication: layer-wise aggregation enables layer-wise traffic. A
// client uploads a layer only while that layer still changes materially —
// its update norm above staleFrac times the peak update norm that client
// has ever seen on that layer; converged layers skip synchronisation. This
// self-calibrating staleness rule is the mechanism behind the ~40% cost
// saving of Fig. 7.
type FexIoT struct {
	peakNorm map[[2]int]float64 // (client, layer) → max observed ‖ΔW_l‖
}

// staleFrac is the staleness threshold: a layer upload is skipped once its
// update norm decays to staleFrac·peak or below.
const staleFrac = 0.3

// NewFexIoT returns the algorithm with the staleness policy.
func NewFexIoT() *FexIoT {
	return &FexIoT{peakNorm: map[[2]int]float64{}}
}

// Name identifies the algorithm.
func (*FexIoT) Name() string { return "FexIoT" }

// Run executes Algorithm 1.
func (f *FexIoT) Run(clients []*Client, cfg Config) *Result {
	res := &Result{}
	sm := newSimMetrics(cfg.Metrics)
	numLayers := clients[0].Model.Params().NumLayers()
	var finalBottom [][]int
	for r := 0; r < cfg.Rounds; r++ {
		sp := obs.StartSpan(sm.roundDur)
		localTrainAll(clients, cfg.roundTrain(r))
		in := RoundInput{
			Weights: make([][][]float64, len(clients)),
			Updates: make([][][]float64, len(clients)),
			Sizes:   trainSizes(clients),
		}
		for i, c := range clients {
			p, u := c.Model.Params(), c.Update()
			for l := 0; l < numLayers; l++ {
				in.Weights[i] = append(in.Weights[i], p.FlattenLayer(l))
				in.Updates[i] = append(in.Updates[i], u.FlattenLayer(l))
			}
		}
		commUp, commDown := f.commBytes(in.Updates)
		out := ClusterRound(in, cfg.Eps1, cfg.Eps2, cfg.Aggregator)
		for i, c := range clients {
			for l, v := range out.Layers[i] {
				c.Model.Params().SetFlattenLayer(l, v)
			}
		}

		res.Comm.UploadBytes += commUp
		res.Comm.DownloadBytes += commDown
		info := RoundInfo{
			Round:       r,
			NumClusters: len(out.Leaves),
			CommBytes:   commUp + commDown,
		}
		res.Rounds = append(res.Rounds, info)
		sp.End()
		sm.record(info)
		finalBottom = out.Leaves
	}
	res.Comm.Rounds = cfg.Rounds
	res.FinalClusters = clusterAssignment(len(clients), finalBottom)
	return res
}

// commBytes is one round's upload/download accounting over
// updates[client][layer]: a client transmits a layer, dense in both
// directions, while it still moves (see staleFrac).
func (f *FexIoT) commBytes(updates [][][]float64) (up, down int64) {
	for i := range updates {
		for l, u := range updates[i] {
			n, key := mat.Norm2(u), [2]int{i, l}
			if n > f.peakNorm[key] {
				f.peakNorm[key] = n
			}
			if n <= staleFrac*f.peakNorm[key] {
				continue
			}
			dense := bytesFor(len(u))
			up += dense
			down += dense
		}
	}
	return up, down
}
