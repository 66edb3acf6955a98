package fed

import (
	"fexiot/internal/fedproto/codec"
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
// its update norm above StaleFrac times the peak update norm that client
// has ever seen on that layer; converged layers skip synchronisation. This
// self-calibrating staleness rule is the mechanism behind the ~40% cost
// saving of Fig. 7.
type FexIoT struct {
	// StaleFrac ∈ [0,1): a layer upload is skipped once its update norm
	// decays below StaleFrac·peak. Zero disables skipping.
	StaleFrac float64

	peakNorm map[[2]int]float64 // (client, layer) → max observed ‖ΔW_l‖
}

// NewFexIoT returns the algorithm with the default staleness policy.
func NewFexIoT() *FexIoT {
	return &FexIoT{StaleFrac: 0.3, peakNorm: map[[2]int]float64{}}
}

// Name identifies the algorithm.
func (*FexIoT) Name() string { return "FexIoT" }

// Run executes Algorithm 1.
func (f *FexIoT) Run(clients []*Client, cfg Config) *Result {
	res := &Result{}
	sm := newSimMetrics(cfg.Metrics)
	numLayers := clients[0].Model.Params().NumLayers()
	var finalBottom [][]int
	cdc := simCodec(cfg.Codec)
	for r := 0; r < cfg.Rounds; r++ {
		sp := obs.StartSpan(sm.roundDur)
		localTrainAll(clients, cfg.roundTrain(r))
		// Wire-codec simulation: what the server aggregates (and the norms,
		// weights and gate below see) is each client's reconstructed update,
		// not the exact local one — mirroring the networked protocol.
		var codecBytes [][]int64 // [layer][client] encoded upload bytes
		if cdc != nil {
			codecBytes = applySimCodec(clients, cdc, numLayers)
		}
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
		commUp, commDown := f.commBytes(in.Updates, codecBytes)
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
// updates[client][layer]: a client transmits a layer while it still moves
// (see StaleFrac) — at the codec's encoded wire size when one is active.
// Downloads are always dense: the server's models ship raw64 in the
// networked protocol too.
func (f *FexIoT) commBytes(updates [][][]float64, codecBytes [][]int64) (up, down int64) {
	for i := range updates {
		for l, u := range updates[i] {
			n, key := mat.Norm2(u), [2]int{i, l}
			if f.peakNorm != nil && n > f.peakNorm[key] {
				f.peakNorm[key] = n
			}
			if f.StaleFrac != 0 && n <= f.StaleFrac*f.peakNorm[key] {
				continue
			}
			dense := bytesFor(len(u))
			down += dense
			if codecBytes != nil {
				up += codecBytes[l][i]
			} else {
				up += dense
			}
		}
	}
	return up, down
}

// simCodec resolves a Config.Codec name to a lossy codec instance, or nil
// when the dense raw64 path (including unknown names) applies.
func simCodec(name string) codec.Codec {
	cdc, err := codec.New(name)
	if err != nil || cdc.Name() == codec.Raw64 {
		return nil
	}
	return cdc
}

// applySimCodec pushes one round's updates through the wire codec: every
// client's params become prev + Decode(Encode(params − prev)) in place, so
// aggregation sees exactly what the networked server would reconstruct. It
// returns the encoded upload wire size per [layer][client] for the
// communication accounting.
func applySimCodec(clients []*Client, cdc codec.Codec, numLayers int) [][]int64 {
	bytes := make([][]int64, numLayers)
	for l := range bytes {
		bytes[l] = make([]int64, len(clients))
	}
	mat.ParallelFor(len(clients), func(i int) {
		c := clients[i]
		if c.prev == nil {
			return
		}
		p := c.Model.Params()
		for l := 0; l < numLayers; l++ {
			for _, name := range p.LayerNames(l) {
				cur := p.Get(name).Data()
				prev := c.prev.Get(name).Data()
				d := make([]float64, len(cur))
				for j := range cur {
					d[j] = cur[j] - prev[j]
				}
				t := cdc.Encode(d)
				bytes[l][i] += t.WireBytes()
				dec, err := cdc.Decode(t)
				if err != nil {
					// Self-encoded frames only fail on non-finite updates;
					// leave those params as-is for the gate to handle.
					continue
				}
				for j := range cur {
					cur[j] = prev[j] + dec[j]
				}
			}
		}
	})
	return bytes
}
