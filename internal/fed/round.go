package fed

import (
	"math"
	"slices"

	"fexiot/internal/mat"
)

// RoundInput is one aggregation round's member state as flat per-layer
// vectors. It is transport-free: the in-process simulator fills it from
// ParamSets, the networked fedproto server from wire payloads.
type RoundInput struct {
	// Weights[member][layer] is the member's current layer weights W.
	Weights [][][]float64
	// Updates[member][layer] is the member's ΔW of this round; a missing or
	// nil member or layer means the aggregator does not know what W moved
	// from.
	Updates [][][]float64
	// Sizes[member] is |G_c|, the FedAvg data weight.
	Sizes []int
}

// RoundOutput is the result of ClusterRound.
type RoundOutput struct {
	// Layers[member][layer] is the aggregate of that layer over the cluster
	// the member ended up in. Members of one cluster share the slice.
	Layers [][][]float64
	// Leaves are the bottom-layer clusters, as member indices.
	Leaves [][]int
}

// ClusterRound is the paper's dynamic layer-wise clustered aggregation
// (Algorithm 1, RecursiveClusteringAgg) — the only copy in the tree. It
// walks the model bottom-up: for every current cluster it evaluates the
// Eq. (3) gate on that layer's updates; when the gate fires, the cluster
// bipartitions by cosine similarity of the layer weights and each half
// aggregates the layer separately (lines 13-17); otherwise the whole
// cluster aggregates it (line 19). The recursion then descends into the
// next layer within each (possibly split) cluster, so upper layers are
// clustered at a finer grain than lower ones. A cluster holding a member
// whose ΔW is unknown cannot evaluate the gate and is never split.
//
// It is a pure, deterministic function of its inputs (a nil agg selects
// FedAvg), which is what makes simulated and networked federation
// bit-identical given the same members.
func ClusterRound(in RoundInput, eps1, eps2 float64, agg Aggregator) RoundOutput {
	agg = aggregatorOr(agg)
	out := RoundOutput{Layers: make([][][]float64, len(in.Weights))}
	if len(in.Weights) == 0 {
		return out
	}
	numLayers := len(in.Weights[0])
	for i := range out.Layers {
		out.Layers[i] = make([][]float64, numLayers)
	}
	// Every gate's weighted mean update: one buffer a call, as long as the
	// longest layer.
	width := 0
	for _, w := range in.Weights[0] {
		width = max(width, len(w))
	}
	mean := make([]float64, 0, width)
	var recurse func(l int, cluster []int)
	recurse = func(l int, cluster []int) {
		if l >= numLayers {
			out.Leaves = append(out.Leaves, cluster)
			return
		}
		update := func(i int) []float64 {
			if i >= len(in.Updates) || in.Updates[i] == nil {
				return nil
			}
			return in.Updates[i][l]
		}
		weights := func(i int) []float64 { return in.Weights[i][l] }
		parts := [][]int{cluster}
		if updateGate(update, cluster, in.Sizes, eps1, eps2, &mean) {
			if c1, c2 := binaryCluster(weights, cluster); len(c2) > 0 {
				parts = [][]int{c1, c2}
			}
		}
		for _, part := range parts {
			vecs := make([][]float64, len(part))
			for k, i := range part {
				vecs[k] = weights(i)
			}
			avg := agg.Aggregate(vecs, QuorumWeights(in.Sizes, part))
			for _, i := range part {
				out.Layers[i][l] = avg
			}
		}
		for _, part := range parts {
			recurse(l+1, part)
		}
	}
	recurse(0, indexRange(len(in.Weights)))
	return out
}

// updateGate evaluates Eq. (3) over one cluster's updates (update(i) is
// member i's ΔW, sizes its data weight), summing their weighted mean in
// *mean, which it grows as needed. Fewer than two members, or any member
// whose update is unknown (nil), keeps the gate shut.
func updateGate(update func(i int) []float64, cluster, sizes []int, eps1, eps2 float64, mean *[]float64) bool {
	if len(cluster) < 2 {
		return false
	}
	w := QuorumWeights(sizes, cluster)
	norms := make([]float64, len(cluster))
	var sum []float64
	for k, i := range cluster {
		u := update(i)
		if u == nil {
			return false
		}
		norms[k] = mat.Norm2(u)
		if sum == nil {
			sum = slices.Grow((*mean)[:0], len(u))[:len(u)]
			clear(sum)
			*mean = sum
		}
		mat.Axpy(sum, u, w[k])
	}
	return gateFromNorms(norms, mat.Norm2(sum), eps1, eps2)
}

// gateFromNorms applies the Eq. (3) gate: the aggregate update is nearly
// stationary (ε1 bound) while at least one client still moves strongly
// (ε2 bound) — the signature of clients pulling in different directions.
// The paper states ε1, ε2 as absolute norms ("related to the size of model
// weights"); to stay calibrated across model sizes and layer widths, this
// implementation interprets them relative to the average individual update
// norm: the gate fires when ‖Σ w_c ΔW_c‖ < ε1·avg‖ΔW_c‖ and
// max‖ΔW_c‖ > ε2·avg‖ΔW_c‖.
func gateFromNorms(norms []float64, meanNorm, eps1, eps2 float64) bool {
	maxNorm, avg := 0.0, 0.0
	for _, n := range norms {
		if n > maxNorm {
			maxNorm = n
		}
		avg += n
	}
	if len(norms) == 0 || avg == 0 {
		return false
	}
	avg /= float64(len(norms))
	return meanNorm < eps1*avg && maxNorm > eps2*avg
}

// binaryCluster splits cluster members into two groups by cosine
// similarity of their signals (signal(i) is member i's vector): the least
// similar pair seeds the groups and every member joins the nearer seed.
func binaryCluster(signal func(i int) []float64, cluster []int) ([]int, []int) {
	seedA, seedB := cluster[0], cluster[1]
	worst := math.Inf(1)
	for x := 0; x < len(cluster); x++ {
		for y := x + 1; y < len(cluster); y++ {
			s := mat.CosineSimilarity(signal(cluster[x]), signal(cluster[y]))
			if s < worst {
				worst = s
				seedA, seedB = cluster[x], cluster[y]
			}
		}
	}
	var a, b []int
	for _, i := range cluster {
		sa := mat.CosineSimilarity(signal(i), signal(seedA))
		sb := mat.CosineSimilarity(signal(i), signal(seedB))
		if sa >= sb {
			a = append(a, i)
		} else {
			b = append(b, i)
		}
	}
	// Singleton clusters degenerate to isolated training and fragment the
	// federation; keep the cluster whole instead.
	if len(a) < 2 || len(b) < 2 {
		return cluster, nil
	}
	return a, b
}

func indexRange(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
