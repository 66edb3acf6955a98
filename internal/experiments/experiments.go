// Package experiments contains one driver per table and figure of the
// paper's evaluation (§IV). Each driver regenerates the corresponding
// rows/series — workload generation, training, measurement and formatted
// output — at the scale selected by FEXIOT_SCALE (CI by default, "paper"
// for the full Table I counts). EXPERIMENTS.md records paper-reported vs
// measured values produced by these drivers.
package experiments

import (
	"fmt"
	"strings"

	"fexiot/internal/datasets"
	"fexiot/internal/fed"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/ml"
	"fexiot/internal/obs"
)

// lr is the Adam learning rate every experiment trains with.
const lr = 0.005

// Setup bundles the shared configuration of the federated experiments.
type Setup struct {
	Scale datasets.Scale
	// Federated training shape.
	Rounds        int
	PairsPerRound int
	Hidden        int
	EmbedDim      int
	Seed          int64
	// Metrics, when non-nil, threads an observability registry through
	// every experiment's simulator, trainer and networked-federation
	// configs (nil: zero-overhead paths everywhere).
	Metrics *obs.Registry
}

// DefaultSetup derives experiment sizing from the active dataset scale.
func DefaultSetup() Setup {
	sc := datasets.Active()
	s := Setup{
		Scale:         sc,
		Rounds:        22,
		PairsPerRound: 150,
		Hidden:        24,
		EmbedDim:      16,
		Seed:          1,
	}
	if sc.Name == "paper" {
		s.Rounds = 60
		s.PairsPerRound = 400
	}
	return s
}

// fedConfig builds the fed.Config for a setup.
func (s Setup) fedConfig() fed.Config {
	cfg := fed.DefaultConfig(s.Seed)
	cfg.Rounds = s.Rounds
	cfg.Train.PairsPerEpoch = s.PairsPerRound
	cfg.Metrics = s.Metrics
	return cfg
}

// newModel builds the GNN for a dataset by name ("GIN", "GCN", "MAGNN").
func (s Setup) newModel(kind string, enc interface {
	WordDim() int
	SentenceDim() int
}, seed int64) gnn.Model {
	wordDim := enc.WordDim() + 2*fusion.SigDim
	sentDim := enc.SentenceDim() + 2*fusion.SigDim
	switch kind {
	case "GCN":
		return gnn.NewGCN(wordDim, s.Hidden, s.EmbedDim, seed)
	case "MAGNN":
		return gnn.NewMAGNN(wordDim, sentDim, s.Hidden, s.EmbedDim, seed)
	default:
		return gnn.NewGIN(wordDim, s.Hidden, s.EmbedDim, seed)
	}
}

// splitClients Dirichlet-splits labelled graphs into per-client shards and
// splits each shard 80/20 into local train and test sets — the paper's
// per-trial protocol (§IV-C), under which every client is evaluated against
// its own deployment distribution.
type clientData struct {
	train [][]*graph.Graph
	test  [][]*graph.Graph
}

func (s Setup) splitClients(labeled []*graph.Graph, n int, alpha float64, seed int64) clientData {
	shards := fed.DirichletSplit(labeled, n, alpha, fed.LabelArchetypeClass(5), seed)
	cd := clientData{train: make([][]*graph.Graph, n), test: make([][]*graph.Graph, n)}
	for i, ds := range shards {
		cut := len(ds) * 8 / 10
		cd.train[i] = ds[:cut]
		cd.test[i] = ds[cut:]
	}
	return cd
}

// runFederated trains clients under an algorithm and returns per-client
// metrics plus the training result.
func (s Setup) runFederated(algo fed.Algorithm, base gnn.Model,
	cd clientData) ([]ml.Metrics, *fed.Result) {
	clients := fed.NewClients(base, cd.train, lr)
	res := algo.Run(clients, s.fedConfig())
	metrics := make([]ml.Metrics, len(clients))
	// Bounded by the shared mat parallelism knob: one goroutine per client
	// would oversubscribe the scheduler at FEXIOT_SCALE=paper client counts.
	mat.ParallelFor(len(clients), func(i int) {
		metrics[i] = fed.EvaluateClient(clients[i], cd.test[i], 3)
	})
	return metrics, res
}

// clusterCount is the number of clusters a run ended with: the distinct
// ids of its final partition.
func clusterCount(res *fed.Result) int {
	ids := map[int]bool{}
	for _, id := range res.FinalClusters {
		ids[id] = true
	}
	return len(ids)
}

// meanMetrics averages client metrics.
func meanMetrics(ms []ml.Metrics) ml.Metrics {
	var out ml.Metrics
	for _, m := range ms {
		out.Accuracy += m.Accuracy
		out.Precision += m.Precision
		out.Recall += m.Recall
		out.F1 += m.F1
	}
	n := float64(len(ms))
	if n > 0 {
		out.Accuracy /= n
		out.Precision /= n
		out.Recall /= n
		out.F1 /= n
	}
	return out
}

// Table renders aligned rows for terminal output.
type Table struct {
	Title   string
	Header  []string
	RowData [][]string
}

// Add appends a row.
func (t *Table) Add(cells ...string) { t.RowData = append(t.RowData, cells) }

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s ===\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.RowData {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	for _, row := range t.RowData {
		writeRow(row)
	}
	return b.String()
}

func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
