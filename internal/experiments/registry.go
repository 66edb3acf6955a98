package experiments

import (
	"fmt"
	"sort"
)

// Runner executes one experiment and returns its printable output.
type Runner func(s Setup) string

// Registry maps experiment ids (table/figure numbers) to runners; this is
// the index cmd/fexbench and the repository benches dispatch on.
func Registry() map[string]Runner {
	return map[string]Runner{
		"table1": func(s Setup) string { return TableI(s).String() },
		"fig3":   func(s Setup) string { return FigureIII(s).String() },
		"fig4": func(s Setup) string {
			// CI scale sweeps GIN over three α values; paper scale adds GCN
			// and the full five-point sweep of Fig. 4.
			alphas := []float64{0.1, 1, 10}
			if s.Scale.Name == "paper" {
				alphas = []float64{0.1, 1, 2, 5, 10}
				return FigureIV(s, "GIN", alphas).String() +
					FigureIV(s, "GCN", alphas).String()
			}
			return FigureIV(s, "GIN", alphas).String()
		},
		"fig4-gcn": func(s Setup) string {
			alphas := []float64{0.1, 1, 10}
			if s.Scale.Name == "paper" {
				alphas = []float64{0.1, 1, 2, 5, 10}
			}
			return FigureIV(s, "GCN", alphas).String()
		},
		"fig5": func(s Setup) string {
			counts := []int{10, 20}
			if s.Scale.Name == "paper" {
				counts = []int{25, 50, 75, 100}
			}
			// Scalability shape (flat medians, widening spread) emerges well
			// before full convergence; trim the rounds at CI scale.
			s.Rounds = s.Rounds * 2 / 3
			return FigureV(s, counts).String()
		},
		"fig6":   func(s Setup) string { return FigureVI(s).String() },
		"table2": func(s Setup) string { return TableII(s).String() },
		"fig7": func(s Setup) string {
			counts := []int{10, 20}
			if s.Scale.Name == "paper" {
				counts = []int{25, 50, 100}
			}
			// Communication shape needs fewer rounds than accuracy sweeps.
			s.Rounds = s.Rounds * 2 / 3
			return FigureVII(s, counts).String()
		},
		"fig8":   FigureVIII,
		"fig9":   func(s Setup) string { return FigureIX(s, 0).String() },
		"table3": func(s Setup) string { return TableIII(s).String() },

		"chaos":  func(s Setup) string { return ChaosFederation(s).String() },
		"poison": func(s Setup) string { return PoisonFederation(s).String() },

		"ablation-layerwise":   func(s Setup) string { return AblationLayerwise(s).String() },
		"ablation-contrastive": func(s Setup) string { return AblationContrastive(s).String() },
		"ablation-beam":        func(s Setup) string { return AblationBeam(s).String() },
		"ablation-mad":         func(s Setup) string { return AblationMAD(s).String() },
	}
}

// Names lists the registered experiment ids in sorted order.
func Names() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for k := range reg {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, s Setup) (string, error) {
	r, ok := Registry()[id]
	if !ok {
		return "", fmt.Errorf("experiments: unknown experiment %q (known: %v)",
			id, Names())
	}
	return r(s), nil
}
