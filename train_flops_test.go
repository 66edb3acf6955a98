package fexiot

import (
	"testing"

	"fexiot/internal/gnn"
	"fexiot/internal/mat"
	"fexiot/internal/obs"
)

// TestTrainCentralEmbedsOnce pins that what TrainCentral does after training
// — fit the linear head, then the drift detector, on the same model and
// graphs — embeds the training graphs once, not once for each: with no
// contrastive rounds, every kernel FLOP it executes is one EmbedAll's.
func TestTrainCentralEmbedsOnce(t *testing.T) {
	reg := obs.NewRegistry()
	opts := DefaultOptions()
	opts.Seed, opts.WordDim, opts.SentenceDim = 7, 24, 32
	opts.Hidden, opts.EmbedDim = 12, 8
	opts.Metrics = reg
	sys, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer mat.InstrumentKernels(nil)
	var graphs []*Graph
	for home := 0; home < 6; home++ {
		deployed := GenerateHome(ArchetypeNames()[home%len(ArchetypeNames())], 12, int64(home+1))
		graphs = append(graphs, sys.BuildGraph(deployed), sys.BuildGraph(deployed))
	}
	flops := reg.Counter("fexiot_mat_flops_total", "")

	before := flops.Value()
	sys.TrainCentral(graphs, 0, 1)
	got := flops.Value() - before

	before = flops.Value()
	gnn.EmbedAll(sys.newModel(100+opts.Seed), graphs)
	want := flops.Value() - before

	if want == 0 || got != want {
		t.Fatalf("TrainCentral with no rounds executed %d kernel FLOPs; one EmbedAll of its graphs is %d", got, want)
	}
}
