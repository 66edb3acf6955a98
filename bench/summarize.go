package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// summarize reads captured standard outputs of earlier runs (any number of
// workloads per file) and prints, per workload × end-to-end metric, the
// median, quartiles and interquartile spread as a share of the median. It
// returns 1 when a spread exceeds the metric's bound or a run was
// incorrect — the check repeat.sh exists for.
func summarize(paths []string) int {
	values := map[string]map[string][]float64{} // workload → metric → runs
	var order []string
	bad := 0
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
		workload := ""
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "# workload "); ok {
				workload, _, _ = strings.Cut(rest, " ")
				continue
			}
			if !strings.HasPrefix(line, `{"correct"`) {
				continue
			}
			var r resultLine
			if err := json.Unmarshal([]byte(line), &r); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", path, err)
				return 2
			}
			if !r.Correct || r.Failed > 0 {
				fmt.Printf("%s: run in %s incorrect (%d of %d failed)\n", workload, path, r.Failed, r.Attempted)
				bad++
			}
			if values[workload] == nil {
				values[workload] = map[string][]float64{}
				order = append(order, workload)
			}
			for name, m := range r.Metrics {
				values[workload][name] = append(values[workload][name], m.Value)
			}
		}
		f.Close()
	}
	fmt.Printf("%-14s %-16s %4s %12s %12s %12s %8s %6s\n",
		"workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, w := range order {
		for _, m := range endToEnd {
			v := values[w][m.name]
			if len(v) < 2 {
				continue
			}
			q1, q2, q3 := quartiles(v)
			spread := relSpread(v)
			flag := ""
			// setup_s is gated on its median only, not on its spread.
			if spread > m.bound && m.name != "setup_s" {
				flag = "  EXCEEDS BOUND"
				bad++
			}
			fmt.Printf("%-14s %-16s %4d %12.4f %12.4f %12.4f %7.1f%% %5.0f%%%s\n",
				w, m.name, len(v), q1, q2, q3, 100*spread, 100*m.bound, flag)
		}
	}
	if bad > 0 {
		return 1
	}
	return 0
}
