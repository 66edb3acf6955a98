package experiments

import (
	"fmt"

	"fexiot/internal/autodiff"
	"fexiot/internal/datasets"
	"fexiot/internal/drift"
	"fexiot/internal/explain"
	"fexiot/internal/fed"
	"fexiot/internal/gnn"
	"fexiot/internal/graph"
	"fexiot/internal/mat"
	"fexiot/internal/ml"
)

// AblationLayerwise contrasts FexIoT's layer-wise clustering against
// whole-model clustering (GCFL+-style) under identical budgets — design
// choice 1 of DESIGN.md §4.
func AblationLayerwise(s Setup) *Table {
	d := datasets.BuildIFTTT(s.Scale, s.Seed)
	labeled := d.Shuffled(s.Seed + 2)
	t := &Table{
		Title:  "Ablation — layer-wise vs whole-model clustering (α=0.1)",
		Header: []string{"Variant", "Accuracy", "F1", "Clusters"},
	}
	for _, algo := range []fed.Algorithm{fed.FexIoT(), fed.GCFL()} {
		cd := s.splitClients(labeled, 10, 0.1, s.Seed+7)
		base := s.newModel("GIN", d.Encoder, 100)
		ms, res := s.runFederated(algo, base, cd)
		m := meanMetrics(ms)
		t.Add(algo.Name(), f3(m.Accuracy), f3(m.F1),
			fmt.Sprint(clusterCount(res)))
	}
	return t
}

// AblationContrastive contrasts the contrastive representation objective
// (Eq. 2) against plain supervised cross-entropy — design choice 2.
func AblationContrastive(s Setup) *Table {
	d := datasets.BuildIFTTT(s.Scale, s.Seed)
	labeled := d.Shuffled(s.Seed + 2)
	cut := len(labeled) * 8 / 10
	train, test := labeled[:cut], labeled[cut:]
	t := &Table{
		Title:  "Ablation — contrastive (Eq. 2) vs supervised cross-entropy",
		Header: []string{"Objective", "Accuracy", "F1"},
	}

	// Contrastive + SGD head (the paper's pipeline).
	det := trainDetectorOn(s, "GIN", d, train)
	m := gnn.EvaluateDetector(det, test)
	t.Add("contrastive+SGD", f3(m.Accuracy), f3(m.F1))

	// Supervised CE, same budget.
	model := s.newModel("GIN", d.Encoder, 100+s.Seed)
	head := gnn.NewSupervisedHead(model.EmbedDim(), 4)
	opt := autodiff.NewAdam(lr)
	opt.WeightDecay = 1e-4
	hOpt := autodiff.NewAdam(lr)
	cfg := gnn.DefaultTrainConfig(s.Seed)
	cfg.PairsPerEpoch = s.PairsPerRound * 2
	for r := 0; r < s.Rounds; r++ {
		cfg.Seed = s.Seed + int64(r)
		gnn.TrainSupervised(model, head, train, cfg, opt, hOpt, nil)
	}
	pred := make([]int, len(test))
	truth := make([]int, len(test))
	for i, g := range test {
		pred[i] = head.Predict(model, g)
		if g.Label {
			truth[i] = 1
		}
	}
	mm := ml.Evaluate(pred, truth)
	t.Add("supervised CE", f3(mm.Accuracy), f3(mm.F1))
	return t
}

// AblationBeam sweeps the MCBS beam width — design choice 4: wider beams
// explore more subgraphs per level at higher cost.
func AblationBeam(s Setup) *Table {
	d := datasets.BuildIFTTT(s.Scale, s.Seed)
	labeled := d.Shuffled(s.Seed)
	det := trainDetectorOn(s, "GCN", d, labeled[:min(len(labeled), 300)])
	var picks []*graph.Graph
	for _, g := range labeled {
		if g.Label && g.N() >= 6 && g.N() <= 16 {
			picks = append(picks, g)
			if len(picks) == 8 {
				break
			}
		}
	}
	t := &Table{
		Title:  "Ablation — MCBS beam width",
		Header: []string{"Beam", "Fidelity (mean)", "Sparsity (mean)"},
	}
	for _, beam := range []int{1, 2, 4, 8} {
		cfg := explain.DefaultSearchConfig(s.Seed)
		cfg.Beam = beam
		var fids, sps []float64
		for gi, g := range picks {
			cfg.Seed = s.Seed + int64(gi)
			ex, fid := explainWith(det, g, cfg, explain.MethodFexIoT)
			fids = append(fids, fid)
			sps = append(sps, explain.Sparsity(g, ex.Nodes))
		}
		t.Add(fmt.Sprint(beam), f3(mat.Mean(fids)), f3(mat.Mean(sps)))
	}
	return t
}

// AblationMAD sweeps the drifting-sample MAD threshold T_M — design
// choice 5: lower thresholds flag more candidates.
func AblationMAD(s Setup) *Table {
	d := datasets.BuildIFTTT(s.Scale, s.Seed)
	labeled := d.Shuffled(s.Seed)
	det := trainDetectorOn(s, "GIN", d, labeled)
	emb := gnn.EmbedAll(det.Model, labeled)
	labels := make([]int, len(labeled))
	for i, g := range labeled {
		if g.Label {
			labels[i] = 1
		}
	}
	dd := drift.Fit(emb, labels)
	test := gnn.EmbedAll(det.Model, d.Unlabeled[:min(len(d.Unlabeled), 400)])
	t := &Table{
		Title:  "Ablation — MAD threshold T_M for drift filtering",
		Header: []string{"T_M", "Flagged", "Flagged %"},
	}
	for _, tm := range []float64{1, 2, 3, 5} {
		dd.Threshold = tm
		_, drifting := dd.FilterDrifting(test)
		t.Add(fmt.Sprintf("%.0f", tm), fmt.Sprint(len(drifting)),
			fmt.Sprintf("%.1f%%", 100*float64(len(drifting))/float64(len(test))))
	}
	return t
}
