package fed

import (
	"math"
	"testing"
	"testing/quick"

	"fexiot/internal/embed"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
)

var testEnc = embed.NewEncoder(24, 32)

func testGraphs(n int) []*graph.Graph {
	pool := fusion.MultiHomePool(3, 30, 20, nil)
	b := fusion.NewBuilder(5, testEnc)
	out := make([]*graph.Graph, n)
	for i := range out {
		out[i] = b.OfflineSized(pool)
	}
	return out
}

func testBase() gnn.Model {
	return gnn.NewGIN(fusion.WordFeatureDim(testEnc), 12, 8, 100)
}

func smallConfig() Config {
	cfg := DefaultConfig(7)
	cfg.Rounds = 3
	cfg.Train.PairsPerEpoch = 20
	cfg.Train.LR = 0.005
	return cfg
}

func splitFour(gs []*graph.Graph) [][]*graph.Graph {
	return DirichletSplit(gs, 4, 1.0, LabelArchetypeClass(5), 11)
}

func TestDirichletSplitPartitions(t *testing.T) {
	gs := testGraphs(120)
	shards := DirichletSplit(gs, 5, 0.5, LabelArchetypeClass(5), 3)
	if len(shards) != 5 {
		t.Fatalf("shard count %d", len(shards))
	}
	seen := map[*graph.Graph]int{}
	total := 0
	for _, shard := range shards {
		total += len(shard)
		for _, g := range shard {
			seen[g]++
		}
	}
	if total != len(gs) {
		t.Fatalf("split total %d want %d", total, len(gs))
	}
	for g, n := range seen {
		if n != 1 {
			t.Fatalf("graph %s assigned %d times", g.ID, n)
		}
	}
	// Minimum shard size honoured.
	for i, shard := range shards {
		if len(shard) < 4 {
			t.Fatalf("shard %d too small: %d", i, len(shard))
		}
	}
}

func TestDirichletSkewGrowsAsAlphaShrinks(t *testing.T) {
	gs := testGraphs(300)
	skew := func(alpha float64) float64 {
		shards := DirichletSplit(gs, 6, alpha, LabelArchetypeClass(5), 3)
		// Variance of positive-label fraction across clients.
		var fracs []float64
		for _, shard := range shards {
			pos := 0
			for _, g := range shard {
				if g.Label {
					pos++
				}
			}
			fracs = append(fracs, float64(pos)/float64(len(shard)))
		}
		m := mat.Mean(fracs)
		return mat.Dot(fracs, fracs)/float64(len(fracs)) - m*m
	}
	if skew(0.1) <= skew(100) {
		t.Fatalf("label skew at α=0.1 (%v) should exceed α=100 (%v)",
			skew(0.1), skew(100))
	}
}

func TestNewClientsShareInitialWeights(t *testing.T) {
	gs := testGraphs(40)
	clients := NewClients(testBase(), splitFour(gs), 0.005)
	if len(clients) != 4 {
		t.Fatalf("client count %d", len(clients))
	}
	w0 := clients[0].Model.Params().Flatten()
	for _, c := range clients[1:] {
		w := c.Model.Params().Flatten()
		for i := range w {
			if w[i] != w0[i] {
				t.Fatal("clients must start from identical weights")
			}
		}
	}
}

func TestFedAvgSynchronisesModels(t *testing.T) {
	gs := testGraphs(60)
	clients := NewClients(testBase(), splitFour(gs), 0.005)
	res := FedAvg().Run(clients, smallConfig())
	// After a FedAvg round every client holds the same weights.
	w0 := clients[0].Model.Params().Flatten()
	for _, c := range clients[1:] {
		w := c.Model.Params().Flatten()
		for i := range w {
			if w[i] != w0[i] {
				t.Fatal("FedAvg must leave identical weights")
			}
		}
	}
	if res.CommBytes <= 0 {
		t.Fatal("FedAvg must account transferred bytes")
	}
}

func TestClientOnlyNeverCommunicates(t *testing.T) {
	gs := testGraphs(60)
	clients := NewClients(testBase(), splitFour(gs), 0.005)
	res := ClientOnly().Run(clients, smallConfig())
	if res.CommBytes != 0 {
		t.Fatal("isolated clients must not transfer bytes")
	}
	// Models must diverge (no aggregation).
	w0 := clients[0].Model.Params().Flatten()
	w1 := clients[1].Model.Params().Flatten()
	same := true
	for i := range w0 {
		if w0[i] != w1[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("isolated clients should diverge")
	}
	if len(res.FinalClusters) != 4 {
		t.Fatal("cluster assignment length")
	}
}

func TestFexIoTRunsAndSavesBytes(t *testing.T) {
	gs := testGraphs(80)
	shards := splitFour(gs)

	clientsA := NewClients(testBase(), shards, 0.005)
	cfg := smallConfig()
	cfg.Rounds = 5
	resFex := FexIoT().Run(clientsA, cfg)

	clientsB := NewClients(testBase(), shards, 0.005)
	resAvg := FedAvg().Run(clientsB, cfg)

	if resFex.CommBytes <= 0 {
		t.Fatal("FexIoT must account bytes")
	}
	if resFex.CommBytes > resAvg.CommBytes {
		t.Fatalf("layer-wise staleness should not exceed FedAvg cost: %d vs %d",
			resFex.CommBytes, resAvg.CommBytes)
	}
	// Cluster assignment is a valid partition.
	if len(resFex.FinalClusters) != 4 {
		t.Fatal("cluster assignment length")
	}
	for _, c := range resFex.FinalClusters {
		if c < 0 || c >= 4 {
			t.Fatalf("cluster id %d out of range", c)
		}
	}
}

func TestClusteredBaselinesProducePartitions(t *testing.T) {
	gs := testGraphs(80)
	for _, algo := range []Algorithm{GCFL(), FMTL()} {
		clients := NewClients(testBase(), splitFour(gs), 0.005)
		res := algo.Run(clients, smallConfig())
		counts := map[int]int{}
		for _, c := range res.FinalClusters {
			counts[c]++
		}
		// Singleton clusters are forbidden by the split rule.
		for id, n := range counts {
			if n < 2 {
				t.Fatalf("%s produced singleton cluster %d", algo.Name(), id)
			}
		}
	}
}

// TestEveryAlgorithmRecordsSimMetrics: the one round loop records the
// simulator telemetry once a round for every algorithm — n round spans, n
// rounds, the run's bytes and its last cluster count.
func TestEveryAlgorithmRecordsSimMetrics(t *testing.T) {
	const rounds = 2
	gs := testGraphs(40)
	for _, algo := range []Algorithm{FexIoT(), GCFL(), FMTL(), FedAvg(), ClientOnly()} {
		reg := obs.NewRegistry()
		cfg := smallConfig()
		cfg.Rounds, cfg.Metrics = rounds, reg
		res := algo.Run(NewClients(testBase(), splitFour(gs), 0.005), cfg)
		sm := newSimMetrics(reg)
		ids := map[int]bool{}
		for _, id := range res.FinalClusters {
			ids[id] = true
		}
		if n := sm.roundDur.Count(); n != rounds {
			t.Errorf("%s: fexiot_sim_round_duration_seconds holds %d observations, want %d", algo.Name(), n, rounds)
		}
		if n := sm.rounds.Value(); n != rounds {
			t.Errorf("%s: fexiot_sim_rounds_total = %d, want %d", algo.Name(), n, rounds)
		}
		if b := sm.comm.Value(); b != res.CommBytes {
			t.Errorf("%s: fexiot_sim_comm_bytes_total = %d, want the run's %d", algo.Name(), b, res.CommBytes)
		}
		if c := sm.clusters.Value(); c != float64(len(ids)) {
			t.Errorf("%s: fexiot_sim_clusters = %v, want %d", algo.Name(), c, len(ids))
		}
	}
}

func TestGateFromNormsProperty(t *testing.T) {
	const eps1, eps2 = 0.4, 0.95
	// Identical updates: meanNorm == avgNorm → no split.
	if gateFromNorms([]float64{1, 1, 1}, 1, eps1, eps2) {
		t.Fatal("aligned clients must not split")
	}
	// Cancelling updates: tiny mean, others large → split.
	if !gateFromNorms([]float64{1, 1, 1}, 0.05, eps1, eps2) {
		t.Fatal("cancelling clients must split")
	}
	// Degenerate inputs never split.
	if gateFromNorms(nil, 0, eps1, eps2) || gateFromNorms([]float64{0, 0}, 0, eps1, eps2) {
		t.Fatal("degenerate norms must not split")
	}
}

func TestBinaryClusterSeparatesOpposedSignals(t *testing.T) {
	signals := [][]float64{
		{1, 0}, {0.9, 0.1}, {-1, 0}, {-0.95, -0.05},
	}
	a, b := binaryCluster(at(signals), []int{0, 1, 2, 3})
	if len(a) != 2 || len(b) != 2 {
		t.Fatalf("split sizes %d/%d", len(a), len(b))
	}
	side := map[int]int{}
	for _, i := range a {
		side[i] = 0
	}
	for _, i := range b {
		side[i] = 1
	}
	if side[0] != side[1] || side[2] != side[3] || side[0] == side[2] {
		t.Fatalf("opposed signals not separated: a=%v b=%v", a, b)
	}
}

func TestEvaluateClientProducesMetrics(t *testing.T) {
	gs := testGraphs(50)
	clients := NewClients(testBase(), splitFour(gs[:40]), 0.005)
	clients[0].LocalTrain(smallConfig().Train)
	m := EvaluateClient(clients[0], gs[40:], 3)
	if m.Accuracy < 0 || m.Accuracy > 1 {
		t.Fatalf("accuracy %v out of range", m.Accuracy)
	}
}

func TestUpdateReflectsTraining(t *testing.T) {
	gs := testGraphs(30)
	clients := NewClients(testBase(), splitFour(gs), 0.005)
	c := clients[0]
	// Before any training the update equals the raw weights (documented
	// fallback), after training it is the delta.
	c.LocalTrain(smallConfig().Train)
	if mat.Norm2(c.Update().Flatten()) == 0 {
		t.Fatal("training must move weights")
	}
	for l := 0; l < c.Model.Params().NumLayers(); l++ {
		if len(c.Update().FlattenLayer(l)) == 0 {
			t.Fatalf("layer %d update empty", l)
		}
	}
}

func TestLabelArchetypeClassStable(t *testing.T) {
	f := func(homeIdx uint8, label bool) bool {
		g := &graph.Graph{Label: label}
		// classOf on empty graphs must not panic and stays in range.
		cls := LabelArchetypeClass(5)(g)
		return cls >= 0 && cls < 10
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestQuorumWeights pins the weighting rule shared with the networked
// fedproto server: FedAvg proportions over the surviving subset and
// uniform degradation on zero total.
func TestQuorumWeights(t *testing.T) {
	sizes := []int{30, 10, 0, 60}
	w := QuorumWeights(sizes, []int{0, 1, 3})
	want := []float64{0.3, 0.1, 0.6}
	for k := range want {
		if diff := w[k] - want[k]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("weight %d = %v, want %v", k, w[k], want[k])
		}
	}
	// Zero total degrades to uniform.
	u := QuorumWeights([]int{0, 0}, []int{0, 1})
	if u[0] != 0.5 || u[1] != 0.5 {
		t.Fatalf("zero-total weights %v, want uniform", u)
	}
	// Sizes whose int sum overflows still weight by proportion.
	big := QuorumWeights([]int{math.MaxInt, math.MaxInt}, []int{0, 1})
	if big[0] != 0.5 || big[1] != 0.5 {
		t.Fatalf("weights of two math.MaxInt sizes %v, want [0.5 0.5]", big)
	}
}
