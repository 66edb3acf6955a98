package serve

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fexiot/internal/explain"
	"fexiot/internal/graph"
	"fexiot/internal/obs"
)

// searchable returns the fixture graphs whose largest component outgrows
// the search's N_min, so explaining them takes many reward evaluations.
func searchable(gs []*graph.Graph) []*graph.Graph {
	var out []*graph.Graph
	for _, g := range gs {
		for i := 0; i < g.N(); i++ {
			if len(g.ComponentOf(i)) >= searchCfg.MinNodes+3 {
				out = append(out, g)
				break
			}
		}
	}
	return out
}

// quittingCtx is a client that gives up mid-search: its nth Err call
// cancels it. The search consults Err once per reward evaluation, so n
// places the disconnect between two of them.
type quittingCtx struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	quitAt int64
}

func (c *quittingCtx) Err() error {
	if c.calls.Add(1) == c.quitAt {
		c.cancel()
	}
	return c.Context.Err()
}

// TestExplainCancelled: an explain whose caller has gone stops at the next
// reward evaluation instead of holding the only worker to the end of the
// search; the worker serves the next request at once, and the same graph
// explained afterwards is bit-identical to an uninterrupted explanation.
func TestExplainCancelled(t *testing.T) {
	det, drf, gs := fixture(31)
	probes := searchable(gs)
	if len(probes) == 0 {
		t.Fatal("fixture has no graph large enough to search")
	}
	probe := probes[0]
	snap := NewSnapshot(1, det, drf, searchCfg)
	want := snap.Explain(probe)

	reg := obs.NewRegistry()
	e := NewEngine(Options{Workers: 1, Metrics: reg})
	defer e.Close()
	e.Publish(snap)
	scoreCalls := reg.Counter("fexiot_explain_score_calls_total", "")

	if _, _, err := e.Explain(context.Background(), probe); err != nil {
		t.Fatal(err)
	}
	full := scoreCalls.Value()

	// Err call 1 is the worker's dequeue check, 2… are the search's, one
	// per reward evaluation: the client goes after three rewards.
	const quitAt = 5
	base, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx := &quittingCtx{Context: base, cancel: cancel, quitAt: quitAt}
	if _, _, err := e.Explain(ctx, probe); !errors.Is(err, context.Canceled) {
		t.Fatalf("abandoned explain returned %v, want context.Canceled", err)
	}
	if status, code := ErrorStatus(context.Canceled); status != 504 || code != CodeDeadline {
		t.Fatalf("context error maps to %d %s", status, code)
	}

	// The worker is free: a detect behind the abandoned explain is served.
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if _, _, err := e.Detect(dctx, probe); err != nil {
		t.Fatalf("detect after an abandoned explain: %v", err)
	}
	// Engine.submit reads the error once more when it, not the worker's
	// reply, wakes the caller.
	if got := ctx.calls.Load(); got != quitAt && got != quitAt+1 {
		t.Fatalf("context consulted %d times, want %d (+1): the search ran past the cancellation", got, quitAt)
	}
	abandoned := scoreCalls.Value() - full
	if want := int64(quitAt-2) * int64(searchCfg.KernelSamples); abandoned != want || abandoned >= full {
		t.Fatalf("abandoned search made %d scores, want %d (three rewards; a full search makes %d)",
			abandoned, want, full)
	}

	// Nothing of the abandoned search survives in the worker's workspace.
	got, _, err := e.Explain(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("explanation after an abandoned search diverged:\ngot  %+v\nwant %+v", got, want)
	}
	dur := reg.HistogramVec("fexiot_serve_request_duration_seconds", "", obs.DefBuckets, "endpoint")
	if n := dur.With("explain").Count(); n != 3 {
		t.Fatalf("request-duration series counted %d explains, want 3 (the abandoned one included)", n)
	}
}

// TestExplainMetrics: the engine adds each explanation's scorer counters to
// the registry. Every layer looks up each scored coalition's rows once, so
// reused + computed is the same at each — the sum of the coalitions' sizes
// — and most of them are reuses.
func TestExplainMetrics(t *testing.T) {
	det, drf, gs := fixture(31)
	reg := obs.NewRegistry()
	e := NewEngine(Options{Workers: 1, Metrics: reg})
	defer e.Close()
	e.Publish(NewSnapshot(1, det, drf, searchCfg))
	var calls, coalitionRows int64
	for _, g := range searchable(gs) {
		if _, _, err := e.Explain(context.Background(), g); err != nil {
			t.Fatal(err)
		}
		// The same questions again, asked through a counter.
		counted := countingScorer{Scorer: det.Scorer(nil, g)}
		ex, err := explain.Search(context.Background(), &counted, g, searchCfg, explain.MethodFexIoT)
		if err != nil {
			t.Fatal(err)
		}
		explain.FidelityOf(&counted, g, ex.Nodes)
		calls, coalitionRows = calls+counted.calls, coalitionRows+counted.rows
	}
	if got := reg.Counter("fexiot_explain_score_calls_total", "").Value(); got == 0 || got != calls {
		t.Fatalf("%d score calls counted, %d made", got, calls)
	}
	rows := reg.CounterVec("fexiot_explain_layer_rows_total", "", "layer", "result")
	for _, layer := range []string{"0", "1", "2"} {
		reused, computed := rows.With(layer, "reused").Value(), rows.With(layer, "computed").Value()
		if reused+computed != coalitionRows || computed == 0 || reused < 4*computed {
			t.Fatalf("layer %s: %d rows reused, %d computed, %d looked up by the searches",
				layer, reused, computed, coalitionRows)
		}
	}
}

// countingScorer counts the scores asked of a scorer and the sizes of their
// coalitions.
type countingScorer struct {
	explain.Scorer
	calls, rows int64
}

func (c *countingScorer) Score(keep []int) float64 {
	c.calls++
	c.rows += int64(len(keep))
	return c.Scorer.Score(keep)
}

// TestExplainConcurrent explains the same and different graphs from eight
// goroutines on one snapshot: each scorer is its own, so every result
// equals the serial one (and the run is clean under -race).
func TestExplainConcurrent(t *testing.T) {
	det, drf, gs := fixture(31)
	snap := NewSnapshot(1, det, drf, searchCfg)
	probes := searchable(gs)
	if len(probes) < 2 {
		t.Fatalf("fixture has %d searchable graphs, want several", len(probes))
	}
	want := make([]Explanation, len(probes))
	for i, g := range probes {
		want[i] = snap.Explain(g)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Everyone explains probe 0 first, then walks the rest from
			// its own offset.
			for k := range probes {
				i := 0
				if k > 0 {
					i = (k + w) % len(probes)
				}
				if got := snap.Explain(probes[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d graph %d diverged:\ngot  %+v\nwant %+v", w, i, got, want[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
