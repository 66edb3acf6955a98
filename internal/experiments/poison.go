package experiments

import (
	"fmt"

	"fexiot/internal/datasets"
	"fexiot/internal/fed"
	"fexiot/internal/mat"
	"fexiot/internal/ml"
)

// PoisonResult holds the honest-client F1 of every attack × aggregator cell
// of the poisoning sweep. The clean baseline is stored under attack "none";
// the pinned robustness test asserts against these numbers directly instead
// of re-parsing the rendered table.
type PoisonResult struct {
	F1 map[string]map[string]float64
}

// Cell returns F1[attack][agg] (0 when the cell was not run).
func (r *PoisonResult) Cell(attack, agg string) float64 {
	if m, ok := r.F1[attack]; ok {
		return m[agg]
	}
	return 0
}

// PoisonSweep runs the Byzantine-robustness experiment: nClients federated
// GIN detectors of which the last nByz run the named model/data-poisoning
// attack, once per aggregation rule. Every cell retrains from the same
// seeded split and initial weights, so differences are attributable to the
// attack × defence pair alone. Reported F1 averages the *honest* clients
// only — a poisoned client's local metrics measure its own corruption, not
// the federation's health.
func PoisonSweep(s Setup, attacks, aggs []string, nClients, nByz int) (*Table, *PoisonResult) {
	d := datasets.BuildIFTTT(s.Scale, s.Seed)
	labeled := d.Shuffled(s.Seed + 2)
	res := &PoisonResult{F1: map[string]map[string]float64{}}
	t := &Table{
		Title: fmt.Sprintf(
			"Poisoning: %d clients, %d Byzantine — honest-client F1 by aggregator",
			nClients, nByz),
		Header: append([]string{"attack"}, aggs...),
	}
	nHonest := nClients - nByz
	for _, atkName := range attacks {
		res.F1[atkName] = map[string]float64{}
		row := []string{atkName}
		for _, aggName := range aggs {
			agg, err := fed.NewAggregator(aggName)
			if err != nil {
				row = append(row, "n/a")
				continue
			}
			cd := s.splitClients(labeled, nClients, 1.0, s.Seed+7)
			base := s.newModel("GIN", d.Encoder, 100)
			clients := fed.NewClients(base, cd.train, lr)
			if atkName != "none" {
				for i := nHonest; i < nClients; i++ {
					// Fresh attack instance per client: replay is stateful.
					atk, err := fed.NewAttack(atkName)
					if err != nil {
						row = append(row, "n/a")
						continue
					}
					fed.MakeByzantine(clients[i], atk)
				}
			}
			cfg := s.fedConfig()
			cfg.Aggregator = agg
			fed.FedAvg().Run(clients, cfg)
			metrics := make([]ml.Metrics, nHonest)
			mat.ParallelFor(nHonest, func(i int) {
				metrics[i] = fed.EvaluateClient(clients[i], cd.test[i], 3)
			})
			f1 := meanMetrics(metrics).F1
			res.F1[atkName][aggName] = f1
			row = append(row, f3(f1))
		}
		t.Add(row...)
	}
	return t, res
}

// PoisonFederation is the registry entry point: the acceptance scenario of
// 8 clients with 2 attackers, swept over the aggregator menu. CI scale
// covers the two model-poisoning attacks the robustness bar is pinned on;
// paper scale adds data poisoning and stale replay.
func PoisonFederation(s Setup) *Table {
	attacks := []string{"none", "sign-flip", "scale"}
	if s.Scale.Name == "paper" {
		attacks = []string{"none", "label-flip", "sign-flip", "scale", "replay"}
	}
	t, _ := PoisonSweep(s, attacks,
		[]string{"fedavg", "trimmed", "median", "krum"}, 8, 2)
	return t
}
