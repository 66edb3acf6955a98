package experiments

import (
	"fmt"

	"fexiot/internal/datasets"
	"fexiot/internal/fed"
	"fexiot/internal/mat"
)

// fig4Algorithms lists the Fig. 4 systems in the paper's order.
func fig4Algorithms() []fed.Algorithm {
	return []fed.Algorithm{
		fed.FexIoT(), fed.GCFL(), fed.FMTL(), fed.FedAvg(), fed.ClientOnly(),
	}
}

// FigureIV runs the federated comparison of Fig. 4: one GNN model
// ("GIN" or "GCN") on the IFTTT dataset, five algorithms, Dirichlet
// concentration sweep, reporting average client accuracy/precision/
// recall/F1.
func FigureIV(s Setup, model string, alphas []float64) *Table {
	if len(alphas) == 0 {
		alphas = []float64{0.1, 1, 2, 5, 10}
	}
	d := datasets.BuildIFTTT(s.Scale, s.Seed)
	labeled := d.Shuffled(s.Seed + 2)
	t := &Table{
		Title: fmt.Sprintf("Fig. 4 — %s under Dirichlet α sweep (avg client metrics)", model),
		Header: []string{"alpha", "Algorithm", "Accuracy", "Precision",
			"Recall", "F1", "Clusters"},
	}
	const nClients = 10
	for _, alpha := range alphas {
		for _, algo := range fig4Algorithms() {
			cd := s.splitClients(labeled, nClients, alpha, s.Seed+7)
			base := s.newModel(model, d.Encoder, 100)
			ms, res := s.runFederated(algo, base, cd)
			m := meanMetrics(ms)
			t.Add(fmt.Sprintf("%.1f", alpha), algo.Name(), f3(m.Accuracy),
				f3(m.Precision), f3(m.Recall), f3(m.F1),
				fmt.Sprint(clusterCount(res)))
		}
	}
	t.Add("(paper)", "FexIoT", "0.891-0.919", "", "", "0.89-0.92", "")
	t.Add("(paper)", "FedAvg", "0.717-0.768", "", "", "0.735-0.748", "")
	t.Add("(paper)", "Client", "0.542-0.622", "", "", "", "")
	return t
}

// FigureV runs the scalability box plots of Fig. 5: client counts 25, 50,
// 75, 100 at α = 1 on the IFTTT dataset with GIN and the heterogeneous
// dataset with MAGNN, reporting min/Q1/median/Q3/max of per-client
// accuracy under FexIoT.
func FigureV(s Setup, clientCounts []int) *Table {
	if len(clientCounts) == 0 {
		clientCounts = []int{25, 50, 75, 100}
	}
	t := &Table{
		Title:  "Fig. 5 — Scalability of FexIoT (per-client accuracy box stats, α=1)",
		Header: []string{"Dataset", "Clients", "Min", "Q1", "Median", "Q3", "Max"},
	}
	type job struct {
		name  string
		model string
		data  *datasets.Dataset
	}
	jobs := []job{
		{"IFTTT", "GIN", datasets.BuildIFTTT(s.Scale, s.Seed)},
		{"Hetero", "MAGNN", datasets.BuildHetero(s.Scale, s.Seed+100)},
	}
	for _, j := range jobs {
		labeled := j.data.Shuffled(s.Seed + 2)
		for _, n := range clientCounts {
			cd := s.splitClients(labeled, n, 1.0, s.Seed+int64(n))
			base := s.newModel(j.model, j.data.Encoder, 100)
			ms, _ := s.runFederated(fed.FexIoT(), base, cd)
			accs := make([]float64, len(ms))
			for i, m := range ms {
				accs[i] = m.Accuracy
			}
			t.Add(j.name, fmt.Sprint(n),
				f3(mat.Quantile(accs, 0)), f3(mat.Quantile(accs, 0.25)),
				f3(mat.Quantile(accs, 0.5)), f3(mat.Quantile(accs, 0.75)),
				f3(mat.Quantile(accs, 1)))
		}
	}
	t.Add("(paper IFTTT)", "25-100", "0.80@100", "", "", "0.869-0.882", "0.977@100")
	return t
}

// FigureVII measures the communication cost of Fig. 7: total transferred
// bytes over the training run for FedAvg, FMTL, GCFL+ and FexIoT at client
// counts 25, 50, 100.
func FigureVII(s Setup, clientCounts []int) *Table {
	if len(clientCounts) == 0 {
		clientCounts = []int{25, 50, 100}
	}
	d := datasets.BuildIFTTT(s.Scale, s.Seed)
	labeled := d.Shuffled(s.Seed + 2)
	t := &Table{
		Title:  "Fig. 7 — Communication cost (total transferred MB)",
		Header: []string{"Clients", "FedAvg", "FMTL", "GCFL+", "FexIoT", "FexIoT saving"},
	}
	for _, n := range clientCounts {
		row := []string{fmt.Sprint(n)}
		var fedavgMB, fexMB float64
		for _, algo := range []fed.Algorithm{fed.FedAvg(), fed.FMTL(), fed.GCFL(), fed.FexIoT()} {
			cd := s.splitClients(labeled, n, 1.0, s.Seed+int64(n))
			base := s.newModel("GIN", d.Encoder, 100)
			clients := fed.NewClients(base, cd.train, lr)
			res := algo.Run(clients, s.fedConfig())
			mb := float64(res.CommBytes) / 1e6
			row = append(row, fmt.Sprintf("%.1f", mb))
			switch algo.Name() {
			case "FedAvg":
				fedavgMB = mb
			case "FexIoT":
				fexMB = mb
			}
		}
		saving := 0.0
		if fedavgMB > 0 {
			saving = 100 * (1 - fexMB/fedavgMB)
		}
		row = append(row, fmt.Sprintf("%.1f%%", saving))
		t.Add(row...)
	}
	t.Add("(paper)", "", "", "", "", "40.2% saving vs FedAvg")
	return t
}
