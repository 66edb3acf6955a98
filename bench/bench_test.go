package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"

	"fexiot/internal/obs"
)

func TestPercentileNearestRank(t *testing.T) {
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(v, c.p); got != c.want {
			t.Errorf("p%v of 1..100 = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 95); got != 7 {
		t.Errorf("p95 of one value = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

// The quartiles must be the ones Python's statistics.quantiles(v, n=4)
// prints, because that is what the acceptance pipeline computes spreads
// from. Expected values were taken from Python 3.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		v          []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 20, 30}, 10, 20, 30},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{1.5, 2.5, 2.5, 9, 4, 7, 1}, 1.5, 2.5, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.v)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.v, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := relSpread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("relSpread = %v, want 1 ((8.25-2.75)/5.5)", got)
	}
}

// The quiet quartile holds while a quarter of the slices are undisturbed:
// five of eight disturbed seconds do not move it.
func TestSliceQuietIgnoresDisturbedSlices(t *testing.T) {
	var vals, at []float64
	for s := 0; s < 8; s++ {
		for i := 0; i < 100; i++ {
			v := float64(i + 1)
			if s >= 3 {
				v *= 1.5 // a noisy neighbour
			}
			vals = append(vals, v)
			at = append(at, float64(s)+float64(i)/100)
		}
	}
	got := sliceQuiet(vals, at, 1, 50, 50, 95)
	if got[0] != 50 || got[1] != 95 {
		t.Errorf("quiet quartile = %v, want [50 95]", got)
	}
	// Too few samples per slice: whole-sample percentiles.
	got = sliceQuiet([]float64{1, 2, 3, 4}, []float64{0, 1, 2, 3}, 1, 50, 50)
	if got[0] != 2 {
		t.Errorf("fallback p50 = %v, want 2", got[0])
	}
	if lo, hi := quietLow([]float64{4, 1, 3, 2}), quietHigh([]float64{4, 1, 3, 2}); lo != 1 || hi != 3 {
		t.Errorf("quietLow, quietHigh = %v, %v, want 1, 3", lo, hi)
	}
}

// CPU per operation is taken per slice: the meter's marks give the quiet
// quartile of the slices' ratios, and the whole run's ratio without enough
// slices.
func TestCPUMeterQuietQuartile(t *testing.T) {
	ms := time.Millisecond
	m := &cpuMeter{
		at:  []time.Duration{0, 1, 2, 3, 4, 5},
		cpu: []time.Duration{0, 100 * ms, 300 * ms, 400 * ms, 700 * ms, 800 * ms},
		ops: []int64{0, 100, 200, 300, 400, 500},
	}
	if got := m.msPerOp(500); got != 1 {
		t.Errorf("msPerOp = %v, want 1 (slices cost 1, 2, 1, 3, 1 ms an operation)", got)
	}
	if got := newCPUMeter().msPerOp(0); got != 0 {
		t.Errorf("msPerOp of nothing = %v, want 0", got)
	}
}

// A 50 ms stall of the system must inflate the latency of the operations
// scheduled behind it, not just the one that stalled: latency is counted
// from when an operation was due. And the generator's lateness is reported.
func TestOpenLoopCountsFromDueTime(t *testing.T) {
	const stallAt = 10
	p := openLoop(500, 200*time.Millisecond, 1, false, func(w, k int) (int, bool) {
		if k == stallAt {
			time.Sleep(50 * time.Millisecond)
		}
		return 0, true
	})
	if len(p.samples) != 100 {
		t.Fatalf("sent %d operations, want 100 (none skipped)", len(p.samples))
	}
	byK := map[time.Duration]sample{}
	for _, s := range p.samples {
		byK[s.due] = s
	}
	at := func(k int) sample { return byK[time.Duration(k)*2*time.Millisecond] }
	if l := at(stallAt - 1).latencyMS(); l > 5 {
		t.Errorf("operation before the stall took %.1f ms", l)
	}
	// Operation stallAt+5 was due 10 ms into the stall: it waited ≈40 ms.
	if l := at(stallAt + 5).latencyMS(); l < 30 {
		t.Errorf("operation due during the stall shows %.1f ms latency; the stall was omitted", l)
	}
	if l := at(stallAt + 5).lagMS(); l < 30 {
		t.Errorf("send lag of a delayed operation = %.1f ms, want ≈40", l)
	}
	if p.lagP95MS() < 10 {
		t.Errorf("reported send lag p95 = %.1f ms; the backlog is not reported", p.lagP95MS())
	}
	// Long after the backlog drained, latency is back to normal.
	if l := at(95).latencyMS(); l > 5 {
		t.Errorf("operation after the backlog drained took %.1f ms", l)
	}
}

func TestClosedLoopAndSteadyRate(t *testing.T) {
	p := closedLoop(100*time.Millisecond, 2, true, func(w, k int) (int, bool) {
		time.Sleep(time.Millisecond)
		return k % 2, k%10 != 0
	})
	if p.failed() == 0 || p.failed() >= len(p.samples) {
		t.Errorf("failed = %d of %d", p.failed(), len(p.samples))
	}
	if ms, _ := p.latencies(1); len(ms) == 0 || len(ms) >= len(p.samples) {
		t.Errorf("class filter returned %d of %d", len(ms), len(p.samples))
	}
	// A synthetic phase of 100 ms slices: an operation every 10 ms, every
	// 20 ms in the disturbed ones.
	var q phase
	for s := 0; s < 8; s++ {
		gap := 10 * time.Millisecond
		if s >= 5 {
			gap *= 2
		}
		for at := time.Duration(0); at < 100*time.Millisecond; at += gap {
			q.samples = append(q.samples, sample{end: time.Duration(s)*100*time.Millisecond + at})
		}
	}
	q.wall = 800 * time.Millisecond
	if got := q.quietPerSecond(100 * time.Millisecond); got != 100 {
		t.Errorf("quiet rate = %v, want 100 (the disturbed slices left out)", got)
	}
}

func TestWarmReportsFailure(t *testing.T) {
	if !warm(2, 10, func(w, k int) (int, bool) { return 0, true }) {
		t.Error("all-ok warm-up reported failure")
	}
	if warm(2, 10, func(w, k int) (int, bool) { return 0, k != 7 }) {
		t.Error("failed warm-up operation not reported")
	}
}

// Self time is a span's duration minus its direct children's, shadow
// children included.
func TestRecorderSelfTime(t *testing.T) {
	r := &recorder{spans: []span{
		{Name: "root", StartNS: 0, EndNS: 100_000, Parent: -1},
		{Name: "a", StartNS: 0, EndNS: 30_000, Parent: 0},
		{Name: "b", StartNS: 30_000, EndNS: 90_000, Parent: 0},
		{Name: "b.inner", StartNS: 30_000, EndNS: 70_000, Parent: 2, Shadow: true},
		{Name: "b.inner.leaf", StartNS: 30_000, EndNS: 45_000, Parent: 3, Shadow: true},
	}}
	self := r.selfTimesUS()
	want := map[string]float64{"root": 10, "a": 30, "b": 20, "b.inner": 25, "b.inner.leaf": 15}
	total := 0.0
	for name, w := range want {
		if got := medianSelfUS(self, name); got != w {
			t.Errorf("self(%s) = %v µs, want %v", name, got, w)
		}
		total += w
	}
	if total != 100 {
		t.Errorf("self times sum to %v, want the root's 100 µs", total)
	}
	if got := r.durationsUS("b"); len(got) != 1 || got[0] != 60 {
		t.Errorf("duration(b) = %v", got)
	}
}

func TestRecorderRecordsAndNilIsInert(t *testing.T) {
	r := newRecorder()
	root := r.begin("op", -1, 7)
	inner := r.call("layer", root, 7, func() { time.Sleep(time.Millisecond) })
	sh := r.shadow("inner", inner, 7, func() {})
	r.attach("summed", inner, 7, 300*time.Microsecond)
	r.end(root)
	if len(r.spans) != 4 || r.spans[inner].Parent != root || r.spans[sh].Parent != inner ||
		!r.spans[sh].Shadow || r.spans[root].Op != 7 {
		t.Fatalf("spans = %+v", r.spans)
	}
	if d := r.spans[inner].EndNS - r.spans[inner].StartNS; d < int64(time.Millisecond) {
		t.Errorf("layer span lasted %d ns", d)
	}
	if d := r.durationsUS("summed"); d[0] != 300 {
		t.Errorf("attached duration = %v", d)
	}

	var none *recorder
	ran := 0
	id := none.call("x", -1, 0, func() { ran++ })
	none.shadow("y", id, 0, func() { ran++ })
	none.end(none.begin("z", -1, 0))
	if ran != 2 || len(none.selfTimesUS()) != 0 {
		t.Errorf("nil recorder: ran %d, spans %v", ran, none.selfTimesUS())
	}

	path := t.TempDir() + "/out/trace-x.json"
	if err := r.write(path, traceFile{Workload: "x", Metrics: map[string]float64{"m": 1}}); err != nil {
		t.Fatal(err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back traceFile
	if err := json.Unmarshal(buf, &back); err != nil || len(back.Spans) != 4 || back.Spans[1].Name != "layer" {
		t.Errorf("trace file does not read back: %v %+v", err, back)
	}
}

// The scrape parser must read what internal/obs writes: counters, labelled
// series, gauges, and histograms with their _bucket, _sum and _count lines.
func TestScrapeRoundTripsObsOutput(t *testing.T) {
	reg := obs.NewRegistry()
	c := reg.Counter("fexiot_test_total", "a counter")
	vec := reg.CounterVec("fexiot_test_dispatch_total", "by mode", "mode")
	g := reg.Gauge("fexiot_test_depth", "a gauge")
	h := reg.Histogram("fexiot_test_seconds", "a histogram", []float64{0.1, 1})
	lbl := reg.CounterVec("fexiot_test_odd_total", "odd label values", "why")

	read := func() scrape {
		var b bytes.Buffer
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		s, err := parseScrape(&b)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	c.Add(3)
	vec.With("serial").Add(5)
	before := read()
	c.Add(4)
	vec.With("serial").Add(1)
	vec.With("parallel").Add(2)
	g.Set(2.5)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	lbl.With(`a "quoted" value with spaces`).Inc()
	after := read()

	if after["fexiot_test_total"] != 7 || after[`fexiot_test_dispatch_total{mode="serial"}`] != 6 {
		t.Errorf("absolute values wrong: %v", after)
	}
	d := after.diff(before)
	for series, want := range map[string]float64{
		"fexiot_test_total":                                           4,
		`fexiot_test_dispatch_total{mode="serial"}`:                   1,
		`fexiot_test_dispatch_total{mode="parallel"}`:                 2,
		"fexiot_test_depth":                                           2.5,
		`fexiot_test_seconds_bucket{le="0.1"}`:                        1,
		`fexiot_test_seconds_bucket{le="1"}`:                          2,
		`fexiot_test_seconds_bucket{le="+Inf"}`:                       3,
		"fexiot_test_seconds_count":                                   3,
		`fexiot_test_odd_total{why="a \"quoted\" value with spaces"}`: 1,
	} {
		if got, ok := d[series]; !ok || got != want {
			t.Errorf("diff[%s] = %v (present %v), want %v", series, got, ok, want)
		}
	}
	if got := d["fexiot_test_seconds_sum"]; math.Abs(got-5.55) > 1e-12 {
		t.Errorf("histogram sum diff = %v, want 5.55", got)
	}
	if got := d.sum("fexiot_test_dispatch_total"); got != 3 {
		t.Errorf("sum over label sets = %v, want 3", got)
	}
	if got := ratio(3, 1); got != 0.75 {
		t.Errorf("ratio = %v", got)
	}
	if got := ratio(0, 0); got != 0 {
		t.Errorf("ratio(0,0) = %v", got)
	}
	if _, err := parseScrape(bytes.NewBufferString("novalue\n")); err == nil {
		t.Error("a line without a value parsed")
	}
}

// BENCHMARK.json and the catalog the program reports from must agree, or
// the pipeline would look for metrics the program never prints.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []m `json:"end_to_end"`
		PerLayer   []m `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &b); err != nil {
		t.Fatal(err)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, program default %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("paths = %v", b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q vs %q", i, b.Workloads[i].Name, w.name)
		}
		if n := len(b.Workloads[i].Why); n == 0 || n > 200 {
			t.Errorf("workload %s: why has %d characters", w.name, n)
		}
	}
	check := func(kind string, file []m, prog []metricDef, bounded bool) {
		if len(file) != len(prog) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(file), len(prog))
			return
		}
		seen := map[string]bool{}
		for i, p := range prog {
			f := file[i]
			if f.Name != p.name || f.Unit != p.unit || f.Better != p.better {
				t.Errorf("%s[%d]: file %+v, catalog %+v", kind, i, f, p)
			}
			if seen[p.name] || len(p.name) > 64 || len(p.unit) > 16 {
				t.Errorf("%s: name %q repeated or too long", kind, p.name)
			}
			seen[p.name] = true
			if bounded && (f.Bound == nil || *f.Bound != p.bound || p.bound > 0.25) {
				t.Errorf("%s %s: bound %v vs %v", kind, p.name, f.Bound, p.bound)
			}
			if !bounded && f.Bound != nil {
				t.Errorf("%s %s carries a bound", kind, p.name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

func TestSeedChangesEveryInput(t *testing.T) {
	a, err := genHomes(1, 2, 8, 8, 33)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := genHomes(2, 2, 8, 8, 33)
	again, _ := genHomes(1, 2, 8, 8, 33)
	for i := range a {
		if !bytes.Equal(a[i].body, again[i].body) {
			t.Errorf("home %d differs between two generations of one seed", i)
		}
		if bytes.Equal(a[i].body, b[i].body) {
			t.Errorf("home %d identical under seeds 1 and 2", i)
		}
		if len(a[i].rules) != len(b[i].rules) {
			t.Errorf("home %d: rule count depends on the seed (%d vs %d)", i, len(a[i].rules), len(b[i].rules))
		}
	}
	if mix(1, 2, 3) == mix(2, 2, 3) || mix(1, 2, 3) == mix(1, 3, 3) || mix(1, 2, 3) == mix(1, 2, 4) || mix(1, 2, 3) < 0 {
		t.Error("mix does not separate its arguments")
	}
}

// A session's feed keeps event time advancing across laps, and the client
// side window mirrors the age and count bounds.
func TestFeedLapsAndWindow(t *testing.T) {
	hs, err := genHomes(1, 5, 1, 20, 11)
	if err != nil {
		t.Fatal(err)
	}
	f, err := genFeed(hs[0], 9, true)
	if err != nil {
		t.Fatal(err)
	}
	s := &session{feed: f}
	s.remember(f.prefill)
	last := f.prefill[len(f.prefill)-1].Time
	for j := 0; j < 2*len(f.batches)+3; j++ {
		b := f.batch(j)
		if len(b) != batchEvents || b[0].Time < last {
			t.Fatalf("batch %d starts at %d after %d", j, b[0].Time, last)
		}
		last = b[len(b)-1].Time
		s.remember(b)
	}
	w := s.window()
	if len(w) > windowEvents || w[len(w)-1].Time != last || w[0].Time < last-windowAge {
		t.Errorf("window of %d events spans %d..%d (newest %d)", len(w), w[0].Time, w[len(w)-1].Time, last)
	}
	var stale []struct{ Time int64 }
	dec := json.NewDecoder(bytes.NewReader(f.stale))
	for dec.More() {
		var e struct{ Time int64 }
		if err := dec.Decode(&e); err != nil {
			t.Fatal(err)
		}
		stale = append(stale, e)
	}
	if len(stale) != batchEvents {
		t.Fatalf("stale batch has %d events", len(stale))
	}
	for _, e := range stale {
		if e.Time != f.prefill[0].Time || e.Time >= f.batch(staleEvery - 2)[batchEvents-1].Time-windowAge {
			t.Errorf("stale event at %d is inside the window after the lead-in", e.Time)
		}
	}
}
