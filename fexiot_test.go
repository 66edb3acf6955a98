package fexiot_test

import (
	"errors"
	"testing"

	"fexiot"
)

// trainedSystem builds a small trained system for API tests.
func trainedSystem(t *testing.T) (*fexiot.System, []*fexiot.Graph) {
	t.Helper()
	opts := fexiot.DefaultOptions()
	opts.Seed, opts.WordDim, opts.SentenceDim = 7, 24, 32
	opts.Hidden, opts.EmbedDim = 12, 8
	sys, err := fexiot.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var train []*fexiot.Graph
	for home := 0; home < 15; home++ {
		arch := fexiot.ArchetypeNames()[home%len(fexiot.ArchetypeNames())]
		deployed := fexiot.GenerateHome(arch, 22, int64(home+1))
		for i := 0; i < 5; i++ {
			train = append(train, sys.BuildGraph(deployed))
		}
	}
	sys.TrainCentral(train, 3, 80)
	return sys, train
}

func TestPublicAPIEndToEnd(t *testing.T) {
	sys, train := trainedSystem(t)

	// Detection on a fresh home.
	home := fexiot.GenerateHome("safety", 16, 99)
	g := sys.BuildGraph(home)
	if g.N() < 2 {
		t.Fatalf("graph too small: %d", g.N())
	}
	v, err := sys.Detect(g)
	if err != nil {
		t.Fatal(err)
	}
	if v.Score < 0 || v.Score > 1 {
		t.Fatalf("score %v out of range", v.Score)
	}
	if v.Vulnerable != (v.Score >= 0.5) {
		t.Fatal("verdict inconsistent with score")
	}

	// Explanation on a vulnerable training graph.
	for _, tg := range train {
		if tg.Label && tg.N() >= 6 {
			ex, err := sys.Explain(tg)
			if err != nil {
				t.Fatal(err)
			}
			if len(ex.NodeIndices) == 0 {
				t.Fatal("empty explanation")
			}
			if ex.Sparsity < 0 || ex.Sparsity > 1 {
				t.Fatalf("sparsity %v", ex.Sparsity)
			}
			if len(ex.Rules) != len(ex.NodeIndices) {
				t.Fatal("rules/indices mismatch")
			}
			break
		}
	}

	// Metrics over the training set beat chance comfortably.
	m, err := sys.Evaluate(train)
	if err != nil {
		t.Fatal(err)
	}
	if m.Accuracy < 0.6 {
		t.Fatalf("train accuracy %v suspiciously low", m.Accuracy)
	}
}

func TestPublicAPIOnlinePipeline(t *testing.T) {
	sys, _ := trainedSystem(t)
	deployed := fexiot.GenerateHome("safety", 12, 5)
	raw := fexiot.SimulateHome(deployed, 1500, 3)
	if len(raw) == 0 {
		t.Fatal("simulator produced nothing")
	}
	clean := fexiot.CleanLog(raw)
	if len(clean) == 0 || len(clean) >= len(raw) {
		t.Fatalf("cleaning: %d → %d", len(raw), len(clean))
	}
	g := sys.BuildOnlineGraph(deployed, clean)
	if !g.Online {
		t.Fatal("online graph not flagged")
	}
	if _, err := sys.Detect(g); err != nil {
		t.Fatal(err)
	}
}

func TestPublicAPIFederated(t *testing.T) {
	opts := fexiot.DefaultOptions()
	opts.Seed, opts.WordDim, opts.SentenceDim = 3, 24, 32
	opts.Hidden, opts.EmbedDim = 12, 8
	sys, err := fexiot.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	builderOpts := fexiot.DefaultOptions()
	builderOpts.Seed, builderOpts.WordDim, builderOpts.SentenceDim = 3, 24, 32
	builder, err := fexiot.New(builderOpts)
	if err != nil {
		t.Fatal(err)
	}
	clientData := make([][]*fexiot.Graph, 4)
	for i := range clientData {
		arch := fexiot.ArchetypeNames()[i%len(fexiot.ArchetypeNames())]
		deployed := fexiot.GenerateHome(arch, 22, int64(i*7+1))
		for g := 0; g < 12; g++ {
			clientData[i] = append(clientData[i], builder.BuildGraph(deployed))
		}
	}
	res, err := sys.TrainFederated(clientData, fexiot.AlgoFexIoT, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.TransferredBytes <= 0 {
		t.Fatal("no communication accounted")
	}
	if len(res.Clusters) != 4 {
		t.Fatalf("cluster assignment %v", res.Clusters)
	}
	// Unknown algorithm rejected.
	if _, err := sys.TrainFederated(clientData, "bogus", 1); err == nil {
		t.Fatal("bogus algorithm must error")
	}
}

func TestUntrainedSystemErrors(t *testing.T) {
	sys, err := fexiot.New(fexiot.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Detect(&fexiot.Graph{}); !errors.Is(err, fexiot.ErrNotTrained) {
		t.Fatalf("Detect: want ErrNotTrained, got %v", err)
	}
	if _, err := sys.Explain(&fexiot.Graph{}); !errors.Is(err, fexiot.ErrNotTrained) {
		t.Fatalf("Explain: want ErrNotTrained, got %v", err)
	}
	if _, err := sys.Evaluate(nil); !errors.Is(err, fexiot.ErrNotTrained) {
		t.Fatalf("Evaluate: want ErrNotTrained, got %v", err)
	}
}

func TestNewRejectsBadOptions(t *testing.T) {
	if _, err := fexiot.New(fexiot.Options{}); err == nil {
		t.Fatal("zero-value Options must be rejected (use DefaultOptions)")
	}
	bad := fexiot.DefaultOptions()
	bad.Model = "transformer"
	if _, err := fexiot.New(bad); err == nil {
		t.Fatal("unknown model must be rejected")
	}
	bad = fexiot.DefaultOptions()
	bad.EmbedDim = -4
	if _, err := fexiot.New(bad); err == nil {
		t.Fatal("negative dimension must be rejected")
	}
}

func TestArchetypeNames(t *testing.T) {
	names := fexiot.ArchetypeNames()
	if len(names) != 5 {
		t.Fatalf("archetype count %d", len(names))
	}
	// GenerateHome falls back gracefully for unknown archetypes.
	if rs := fexiot.GenerateHome("nonexistent", 5, 1); len(rs) != 5 {
		t.Fatal("fallback generation failed")
	}
}

// TestTrainFederatedNoClientsErrors: federated training over no client
// datasets is an error from every algorithm, not a panic, and leaves the
// system untrained.
func TestTrainFederatedNoClientsErrors(t *testing.T) {
	opts := fexiot.DefaultOptions()
	opts.Seed, opts.WordDim, opts.SentenceDim = 3, 24, 32
	opts.Hidden, opts.EmbedDim = 12, 8
	sys, err := fexiot.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []fexiot.FederatedAlgorithm{fexiot.AlgoFexIoT, fexiot.AlgoGCFL,
		fexiot.AlgoFMTL, fexiot.AlgoFedAvg, fexiot.AlgoClient} {
		if res, err := sys.TrainFederated(nil, algo, 2); err == nil {
			t.Fatalf("%s: TrainFederated(nil) = %+v, want an error", algo, res)
		}
	}
	g := sys.BuildGraph(fexiot.GenerateHome("safety", 12, 5))
	if _, err := sys.Detect(g); !errors.Is(err, fexiot.ErrNotTrained) {
		t.Fatalf("Detect after failed training: %v, want ErrNotTrained", err)
	}
}

// TestEmptyGraphErrors: a graph with no nodes — the online graph of a log
// in which no deployed rule ran — is an error from Detect and Evaluate, not
// a panic, and Explain answers it with an empty explanation.
func TestEmptyGraphErrors(t *testing.T) {
	sys, train := trainedSystem(t)
	empty := sys.BuildOnlineGraph(fexiot.GenerateHome("safety", 12, 5), nil)
	if empty.N() != 0 {
		t.Fatalf("online graph of an empty log has %d nodes", empty.N())
	}
	if _, err := sys.Detect(empty); err == nil {
		t.Fatal("Detect: want an error for a graph with no nodes")
	}
	if _, err := sys.Evaluate([]*fexiot.Graph{train[0], empty}); err == nil {
		t.Fatal("Evaluate: want an error for a graph with no nodes")
	}
	ex, err := sys.Explain(empty)
	if err != nil || len(ex.NodeIndices) != 0 {
		t.Fatalf("Explain = %+v, %v; want an empty explanation", ex, err)
	}
}
