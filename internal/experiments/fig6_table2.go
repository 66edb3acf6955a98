package experiments

import (
	"fmt"

	"fexiot/internal/autodiff"
	"fexiot/internal/baselines"
	"fexiot/internal/datasets"
	"fexiot/internal/drift"
	"fexiot/internal/eventlog"
	"fexiot/internal/fusion"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/ml"
	"fexiot/internal/vuln"
)

// trainDetectorOn trains a contrastive GNN + SGD head centrally on labelled
// graphs (the shared backbone for Fig. 6, Table II and the explanation
// experiments).
func trainDetectorOn(s Setup, model string, d *datasets.Dataset,
	graphs []*graph.Graph) *gnn.Detector {
	m := s.newModel(model, d.Encoder, 100+s.Seed)
	cfg := gnn.DefaultTrainConfig(s.Seed)
	cfg.PairsPerEpoch = s.PairsPerRound * 2
	opt := autodiff.NewAdam(lr)
	opt.WeightDecay = 1e-4
	rounds := s.Rounds
	for r := 0; r < rounds; r++ {
		cfg.Seed = s.Seed + int64(r)
		gnn.TrainContrastive(m, graphs, cfg, opt)
	}
	det := gnn.NewDetector(m, 3)
	det.FitClassifier(graphs)
	return det
}

// FigureVI reproduces the drifting-pattern analysis: train the contrastive
// model on labelled data, embed a sample of graphs, cluster them with
// k-means over t-SNE coordinates (the Fig. 6 visualisation), and count the
// drifting samples recovered from unlabelled data spiked with the three
// novel patterns of §IV-C.
func FigureVI(s Setup) *Table {
	t := &Table{
		Title: "Fig. 6 — Embedding clusters and drifting-sample detection",
		Header: []string{"Dataset", "Samples", "k-means clusters",
			"Drift planted", "Drift flagged", "Planted recovered"},
	}
	for _, name := range []string{"IFTTT", "Hetero"} {
		var d *datasets.Dataset
		if name == "IFTTT" {
			d = datasets.BuildIFTTT(s.Scale, s.Seed)
		} else {
			d = datasets.BuildHetero(s.Scale, s.Seed+100)
		}
		labeled := d.Shuffled(s.Seed)
		det := trainDetectorOn(s, "GIN", d, labeled)

		// Embed a sample for the k-means/t-SNE view (paper: 1,500).
		sample := labeled
		maxSample := 1500
		if len(sample) > maxSample {
			sample = sample[:maxSample]
		}
		emb := gnn.EmbedAll(det.Model, sample)
		ts := drift.NewTSNE()
		ts.Iters = 120
		coords := ts.Embed(emb)
		km := drift.NewKMeans(vuln.NumLabeledTypes+1, s.Seed)
		km.Fit(coords)

		// Drift detection on unlabelled data spiked with novel patterns.
		labels := make([]int, len(labeled))
		for i, g := range labeled {
			if g.Label {
				labels[i] = 1
			}
		}
		detDrift := drift.Fit(gnn.EmbedAll(det.Model, labeled), labels)
		unl := append([]*graph.Graph(nil), d.Unlabeled...)
		b := fusion.NewBuilder(s.Seed+31, d.Encoder)
		planted := len(unl) / 20
		if planted < 3 {
			planted = 3
		}
		plantedSet := map[int]bool{}
		for i := 0; i < planted; i++ {
			idx := i * len(unl) / planted
			unl[idx] = b.OfflineWithDrift(d.Pool,
				fusion.DriftKind(i%int(fusion.NumDriftKinds)), 3)
			plantedSet[idx] = true
		}
		_, drifting := detDrift.FilterDrifting(gnn.EmbedAll(det.Model, unl))
		recovered := 0
		for _, idx := range drifting {
			if plantedSet[idx] {
				recovered++
			}
		}
		t.Add(name, fmt.Sprint(len(sample)), fmt.Sprint(len(km.Centers)),
			fmt.Sprint(planted), fmt.Sprint(len(drifting)),
			fmt.Sprintf("%d/%d", recovered, planted))
	}
	t.Add("(paper)", "1500", "7", "", "63 (IFTTT) / 104 (Hetero)", "3 new patterns")
	return t
}

// TableII runs the testbed system comparison: HAWatcher, DeepLog and
// IsolationForest consume event logs while FexIoT consumes the fused
// online graphs; all are evaluated on the same online samples.
func TableII(s Setup) *Table {
	samples, enc, deployed := datasets.BuildTestbed(s.Scale, s.Seed+41)
	// Training material: benign logs (first half of the benign samples) and
	// offline graphs for the FexIoT detector.
	var benignLogs []eventlog.Log
	for _, sm := range samples {
		if !sm.Attacked && !sm.Graph.Label {
			benignLogs = append(benignLogs, sm.Log)
		}
	}
	trainLogs := benignLogs
	if len(trainLogs) > len(samples)/3 {
		trainLogs = trainLogs[:len(samples)/3]
	}

	// FexIoT's training material mirrors the paper's federated setup: the
	// heterogeneous offline corpus (all five platforms — the testbed homes
	// deploy mixed-platform rules) plus online graphs fused from a disjoint
	// set of training homes, so the detector has seen the online graph
	// distribution. The test samples below never enter training.
	dHet := datasets.BuildHetero(s.Scale, s.Seed)
	dHet.Encoder = enc // deterministic per-dims; shared with the online fuser
	trainGraphs := dHet.Shuffled(s.Seed)
	if len(trainGraphs) > 500 {
		trainGraphs = trainGraphs[:500]
	}
	// Auxiliary training windows from the SAME testbed deployment (disjoint
	// simulator seeds, so no window overlaps the test set) teach the
	// detector the online graph distribution of this home.
	auxSamples := datasets.TestbedWindows(deployed, enc,
		s.Seed+41+int64(s.Scale.OnlineGraphs)*17+991, s.Scale.OnlineGraphs/2)
	for _, sm := range auxSamples {
		if sm.Graph.N() == 0 {
			continue
		}
		g := sm.Graph
		g.Label = sm.Vulnerable()
		trainGraphs = append(trainGraphs, g)
	}
	det := trainDetectorOn(s, "GIN", dHet, trainGraphs)

	truth := make([]int, len(samples))
	for i, sm := range samples {
		if sm.Vulnerable() {
			truth[i] = 1
		}
	}

	t := &Table{
		Title:  "Table II — Comparison of different systems with testbed data",
		Header: []string{"Method", "Accuracy", "Precision", "Recall", "F1"},
	}
	logDetectors := []baselines.LogDetector{
		baselines.NewHAWatcher(), baselines.NewDeepLog(), baselines.NewIsoForest(),
	}
	for _, ld := range logDetectors {
		ld.Train(trainLogs)
		pred := make([]int, len(samples))
		for i, sm := range samples {
			pred[i] = ld.Predict(sm.Log)
		}
		m := ml.Evaluate(pred, truth)
		t.Add(ld.Name(), f3(m.Accuracy), f3(m.Precision), f3(m.Recall), f3(m.F1))
	}
	// FexIoT: GNN detector on fused online graphs; attacks perturb the
	// graph structure so the detector flags them, and ground-truth labels
	// on the fused graph catch inherent vulnerabilities.
	pred := make([]int, len(samples))
	for i, sm := range samples {
		if sm.Graph.N() == 0 {
			pred[i] = 0
			continue
		}
		pred[i] = det.Predict(sm.Graph)
	}
	m := ml.Evaluate(pred, truth)
	t.Add("FexIoT", f3(m.Accuracy), f3(m.Precision), f3(m.Recall), f3(m.F1))
	t.Add("(paper HAWatcher)", "0.82", "0.83", "0.87", "0.85")
	t.Add("(paper DeepLog)", "0.74", "0.78", "0.79", "0.78")
	t.Add("(paper IsolationForest)", "0.63", "0.74", "0.61", "0.67")
	t.Add("(paper FexIoT)", "0.90", "0.90", "0.93", "0.91")
	return t
}
