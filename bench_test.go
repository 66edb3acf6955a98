// Repository benchmark harness: one testing.B benchmark per table and
// figure of the paper's evaluation, plus the ablation benches of DESIGN.md
// §4 and micro-benchmarks of the pipeline stages. Each experiment bench
// executes the corresponding driver once per iteration (the default 1 s
// benchtime yields exactly one run) and prints the regenerated rows on the
// first iteration, so
//
//	go test -bench=. -benchmem
//
// reproduces the full evaluation at CI scale; FEXIOT_SCALE=paper scales the
// datasets to Table I's exact counts.
package fexiot_test

import (
	"context"
	"fmt"
	"math"
	"sync"
	"testing"

	"fexiot"
	"fexiot/internal/experiments"
	"fexiot/internal/fed"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
	"fexiot/internal/serve"
)

var printOnce sync.Map

// runExperiment executes one registered experiment per b.N iteration and
// prints its output the first time.
func runExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	setup := experiments.DefaultSetup()
	for i := 0; i < b.N; i++ {
		out, err := experiments.Run(id, setup)
		if err != nil {
			b.Fatal(err)
		}
		if _, dup := printOnce.LoadOrStore(id, true); !dup {
			fmt.Println(out)
		}
	}
}

// --- One benchmark per table / figure ------------------------------------

// BenchmarkTableI regenerates the dataset statistics of Table I.
func BenchmarkTableI(b *testing.B) { runExperiment(b, "table1") }

// BenchmarkFig3 regenerates the correlation-classifier comparison (Fig. 3).
func BenchmarkFig3(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig4 regenerates the federated comparison sweep (Fig. 4).
func BenchmarkFig4(b *testing.B) { runExperiment(b, "fig4") }

// BenchmarkFig5 regenerates the scalability box plots (Fig. 5).
func BenchmarkFig5(b *testing.B) { runExperiment(b, "fig5") }

// BenchmarkFig6 regenerates the clustering/drift analysis (Fig. 6).
func BenchmarkFig6(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkTableII regenerates the testbed system comparison (Table II).
func BenchmarkTableII(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig7 regenerates the communication-cost comparison (Fig. 7).
func BenchmarkFig7(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8 regenerates the qualitative explanation examples (Fig. 8).
func BenchmarkFig8(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkFig9 regenerates the fidelity/sparsity comparison (Fig. 9).
func BenchmarkFig9(b *testing.B) { runExperiment(b, "fig9") }

// BenchmarkTableIII regenerates the runtime-efficiency table (Table III).
func BenchmarkTableIII(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkChaos runs the fault-injection federation demo: a loopback
// quorum federation that survives a hard-killed client (DESIGN.md §4.6).
func BenchmarkChaos(b *testing.B) { runExperiment(b, "chaos") }

// BenchmarkPoison runs the Byzantine-robustness sweep: 8 clients, 2
// attackers, detector F1 per attack × aggregator (DESIGN.md §4.7).
func BenchmarkPoison(b *testing.B) { runExperiment(b, "poison") }

// --- Ablation benches (DESIGN.md §4) --------------------------------------

// BenchmarkAblationLayerwise contrasts layer-wise vs whole-model clustering.
func BenchmarkAblationLayerwise(b *testing.B) { runExperiment(b, "ablation-layerwise") }

// BenchmarkAblationContrastive contrasts Eq. (2) vs supervised CE.
func BenchmarkAblationContrastive(b *testing.B) { runExperiment(b, "ablation-contrastive") }

// BenchmarkAblationBeam sweeps the MCBS beam width.
func BenchmarkAblationBeam(b *testing.B) { runExperiment(b, "ablation-beam") }

// BenchmarkAblationMAD sweeps the drift threshold T_M.
func BenchmarkAblationMAD(b *testing.B) { runExperiment(b, "ablation-mad") }

// --- Dense kernel bench (internal/mat) -------------------------------------

// BenchmarkMatMulSerial times n×n·n×n MulTo at n = 64…1024 and reports
// effective GFLOP/s. The kernels have one body and no "Serial" variant any
// more; the name stays because scripts/bench-baseline.sh's PATTERN and every
// committed BENCH_*.json key on it.
func BenchmarkMatMulSerial(b *testing.B) {
	for _, n := range []int{64, 256, 512, 1024} {
		b.Run(fmt.Sprintf("%d", n), func(b *testing.B) {
			x, y, dst := mat.NewDense(n, n), mat.NewDense(n, n), mat.NewDense(n, n)
			for i := range x.Data() {
				x.Data()[i] = math.Sin(float64(i) * 0.13)
				y.Data()[i] = math.Cos(float64(i) * 0.07)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mat.MulTo(dst, x, y)
			}
			flops := 2 * float64(n) * float64(n) * float64(n)
			b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
		})
	}
}

// --- Robust aggregation benches (internal/fed) -----------------------------

// benchAggregator times one rule over an nClients federation with a 64k-
// coordinate layer and reports aggregated coordinates per second — the
// GFLOP-style throughput number that makes the robustness tax comparable
// across rules (sorting for trimmed/median, O(n²) distances for Krum).
func benchAggregator(b *testing.B, agg fed.Aggregator, nClients int) {
	const dim = 1 << 16
	vecs := make([][]float64, nClients)
	w := make([]float64, nClients)
	for i := range vecs {
		w[i] = 1 / float64(nClients)
		vecs[i] = make([]float64, dim)
		for j := range vecs[i] {
			vecs[i][j] = math.Sin(float64(i*dim+j) * 0.37)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		agg.Aggregate(vecs, w)
	}
	coords := float64(nClients) * float64(dim)
	b.ReportMetric(coords*float64(b.N)/b.Elapsed().Seconds()/1e9, "Gcoord/s")
}

// BenchmarkAggregators compares the aggregation rules' throughput: FedAvg's
// weighted mean vs the robust alternatives, at the four clients of a
// fed_round federation and at sixteen.
func BenchmarkAggregators(b *testing.B) {
	for _, n := range []int{4, 16} {
		for _, agg := range []fed.Aggregator{
			fed.MeanAgg{}, fed.TrimmedMeanAgg{}, fed.MedianAgg{},
			fed.NormClipAgg{}, fed.KrumAgg{M: 1}, fed.KrumAgg{},
		} {
			b.Run(fmt.Sprintf("clients=%d/%s", n, agg.Name()), func(b *testing.B) {
				benchAggregator(b, agg, n)
			})
		}
	}
}

// --- Micro-benchmarks of the pipeline stages -------------------------------

// pipelineFixture builds a small trained system shared by the micro-benches.
type pipelineFixture struct {
	sys   *fexiot.System
	train []*fexiot.Graph
	probe *fexiot.Graph
}

var (
	fixtureOnce sync.Once
	fixture     pipelineFixture
)

func getFixture(b *testing.B) *pipelineFixture {
	b.Helper()
	fixtureOnce.Do(func() {
		opts := fexiot.DefaultOptions()
		opts.Seed = 7
		sys, err := fexiot.New(opts)
		if err != nil {
			b.Fatal(err)
		}
		var train []*fexiot.Graph
		for home := 0; home < 20; home++ {
			arch := fexiot.ArchetypeNames()[home%len(fexiot.ArchetypeNames())]
			deployed := fexiot.GenerateHome(arch, 25, int64(home+1))
			for i := 0; i < 6; i++ {
				train = append(train, sys.BuildGraph(deployed))
			}
		}
		sys.TrainCentral(train, 6, 200)
		probe := train[0]
		for _, g := range train {
			if g.Label && g.N() >= 8 {
				probe = g
				break
			}
		}
		fixture = pipelineFixture{sys: sys, train: train, probe: probe}
	})
	return &fixture
}

// BenchmarkGraphConstruction measures offline interaction-graph building.
func BenchmarkGraphConstruction(b *testing.B) {
	f := getFixture(b)
	deployed := fexiot.GenerateHome("safety", 25, 3)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.sys.BuildGraph(deployed)
	}
}

// BenchmarkDetect measures one vulnerability prediction (GNN embed + head).
func BenchmarkDetect(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.sys.Detect(f.probe); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExplain measures one SHAP-guided MCBS explanation, and reports
// the share of each GNN layer's rows the search's memo served. The facade
// hands no counters back, so those come from one more explanation of the
// probe, untimed, on an engine with a registry.
func BenchmarkExplain(b *testing.B) {
	f := getFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.sys.Explain(f.probe); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	reg := obs.NewRegistry()
	e := serve.NewEngine(serve.Options{Workers: 1, Metrics: reg})
	defer e.Close()
	e.Publish(fexiot.SnapshotOf(f.sys))
	if _, _, err := e.Explain(context.Background(), f.probe); err != nil {
		b.Fatal(err)
	}
	rows := reg.CounterVec("fexiot_explain_layer_rows_total", "", "layer", "result")
	for _, layer := range []string{"0", "1", "2"} { // GIN's three
		reused, computed := rows.With(layer, "reused").Value(), rows.With(layer, "computed").Value()
		b.ReportMetric(float64(reused)/float64(reused+computed), "rows-reused-l"+layer)
	}
}

// BenchmarkSimulateAndClean measures event-log simulation plus cleaning.
func BenchmarkSimulateAndClean(b *testing.B) {
	deployed := fexiot.GenerateHome("safety", 14, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fexiot.CleanLog(fexiot.SimulateHome(deployed, 1000, int64(i)))
	}
}

// BenchmarkOnlineFusion measures log-to-online-graph fusion.
func BenchmarkOnlineFusion(b *testing.B) {
	f := getFixture(b)
	deployed := fexiot.GenerateHome("safety", 14, 5)
	log := fexiot.CleanLog(fexiot.SimulateHome(deployed, 2000, 3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.sys.BuildOnlineGraph(deployed, log)
	}
}
