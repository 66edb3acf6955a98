package eventlog

import (
	"fmt"
	"testing"

	"fexiot/internal/rules"
)

var sinkLog Log

// ledgerHome is the home of the ledger rows and the allocation ceiling: 25
// rules of the safety archetype.
func ledgerHome() []*rules.Rule { return archetypeHome("safety", 25, 5) }

// BenchmarkSimulate is the ledger row for the testbed stand-in: one 25-rule
// home over two hours (what a stream_cycle session's set-up simulates, to
// the order of magnitude) and over the one week of logs the paper's online
// evaluation collects (§IV-A).
func BenchmarkSimulate(b *testing.B) {
	deployed := ledgerHome()
	for _, steps := range []int64{7200, 604800} {
		b.Run(fmt.Sprintf("steps=%d", steps), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sinkLog = NewSimulator(deployed, int64(i)).Run(steps)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N)/float64(steps), "µs/sim-s")
		})
	}
}

// BenchmarkClean cleans one two-hour raw log (§III-A2).
func BenchmarkClean(b *testing.B) {
	raw := NewSimulator(ledgerHome(), 1).Run(7200)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkLog = Clean(raw)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N)/float64(len(raw)), "µs/event")
}
