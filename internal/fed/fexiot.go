package fed

import "fexiot/internal/mat"

// staleFrac is the staleness threshold: a layer upload is skipped once its
// update norm decays to staleFrac·peak or below.
const staleFrac = 0.3

// FexIoT is the paper's dynamic layer-wise clustering-based federated GNN
// aggregation (Algorithm 1) as an in-process simulation: its combine step
// is ClusterRound — the aggregation core shared with the networked
// fedproto server — over every client's weights and ΔW = W − W_before.
//
// Communication: layer-wise aggregation enables layer-wise traffic. A
// client uploads a layer only while that layer still changes materially —
// its update norm above staleFrac times the peak update norm that client
// has seen on that layer in this run; converged layers skip
// synchronisation. This self-calibrating staleness rule is the mechanism
// behind the ~40% cost saving of Fig. 7.
func FexIoT() Algorithm {
	return Algorithm{name: "FexIoT", start: func(n int) ([][]int, combine) {
		peak := map[[2]int]float64{} // (client, layer) → max observed ‖ΔW_l‖
		return [][]int{indexRange(n)}, func(clients []*Client, _ [][]int, cfg Config) ([][]int, int64) {
			numLayers := clients[0].Model.Params().NumLayers()
			in := RoundInput{
				Weights: make([][][]float64, len(clients)),
				Updates: make([][][]float64, len(clients)),
				Sizes:   trainSizes(clients),
			}
			var bytes int64
			for i, c := range clients {
				p, u := c.Model.Params(), c.Update()
				for l := 0; l < numLayers; l++ {
					in.Weights[i] = append(in.Weights[i], p.FlattenLayer(l))
					in.Updates[i] = append(in.Updates[i], u.FlattenLayer(l))
					// A NaN norm never becomes the peak and never counts as
					// converged.
					n, key := mat.Norm2(in.Updates[i][l]), [2]int{i, l}
					if n > peak[key] {
						peak[key] = n
					}
					if n <= staleFrac*peak[key] {
						continue
					}
					// A moving layer goes dense in both directions.
					bytes += 2 * bytesFor(len(in.Updates[i][l]))
				}
			}
			out := ClusterRound(in, cfg.Eps1, cfg.Eps2, cfg.Aggregator)
			for i, c := range clients {
				for l, v := range out.Layers[i] {
					c.Model.Params().SetFlattenLayer(l, v)
				}
			}
			return out.Leaves, bytes
		}
	}}
}
