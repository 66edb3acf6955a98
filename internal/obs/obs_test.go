package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPrometheusGolden pins the full text-format rendering: HELP/TYPE
// lines, family name ordering, series label ordering, label value
// escaping, and cumulative histogram buckets with _sum/_count. Any change
// to the exposition format shows up as a diff against this golden string.
func TestPrometheusGolden(t *testing.T) {
	r := NewRegistry()
	r.Counter("zz_last_total", "registered first, renders last").Add(7)
	r.Gauge("aa_temp", "renders first despite late registration").Set(-1.5)
	cv := r.CounterVec("fexiot_requests_total", `quoted "help" stays verbatim`, "path", "verdict")
	cv.With(`weird\path`, "ok").Add(3)
	cv.With("a\nb", `has"quote`).Inc()
	cv.With("plain", "ok").Add(2)
	h := r.Histogram("fexiot_round_duration_seconds", "round latency", []float64{0.1, 1, 10})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(0.5)
	h.Observe(42)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aa_temp renders first despite late registration
# TYPE aa_temp gauge
aa_temp -1.5
# HELP fexiot_requests_total quoted "help" stays verbatim
# TYPE fexiot_requests_total counter
fexiot_requests_total{path="a\nb",verdict="has\"quote"} 1
fexiot_requests_total{path="plain",verdict="ok"} 2
fexiot_requests_total{path="weird\\path",verdict="ok"} 3
# HELP fexiot_round_duration_seconds round latency
# TYPE fexiot_round_duration_seconds histogram
fexiot_round_duration_seconds_bucket{le="0.1"} 1
fexiot_round_duration_seconds_bucket{le="1"} 3
fexiot_round_duration_seconds_bucket{le="10"} 3
fexiot_round_duration_seconds_bucket{le="+Inf"} 4
fexiot_round_duration_seconds_sum 43.05
fexiot_round_duration_seconds_count 4
# HELP zz_last_total registered first, renders last
# TYPE zz_last_total counter
zz_last_total 7
`
	if got := b.String(); got != want {
		t.Errorf("golden mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

// TestNilRegistryIsNoOp exercises the disabled fast path: every handle off
// a nil registry must be callable and render nothing.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	c.Inc()
	c.Add(5)
	g := r.Gauge("g", "")
	g.Set(1)
	g.Add(2)
	h := r.Histogram("h", "", nil)
	h.Observe(3)
	r.CounterVec("cv", "", "l").With("x").Inc()
	r.HistogramVec("hv", "", nil, "l").With("x").Observe(1)
	sp := StartSpan(h)
	sp.End()
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil handles must read as zero")
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil || b.String() != "" {
		t.Fatalf("nil registry rendered %q, err %v", b.String(), err)
	}
	snap := r.Snapshot()
	if len(snap.Metrics) != 0 {
		t.Fatalf("nil registry snapshot has metrics: %v", snap.Metrics)
	}
}

// TestIdempotentRegistration: the same name returns the same handle, and
// concurrent registration+update is race-free.
func TestIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	if r.Counter("x_total", "a") != r.Counter("x_total", "a") {
		t.Fatal("re-registration must return the same counter")
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("x_total", "a").Inc()
				r.CounterVec("y_total", "b", "l").With("v").Inc()
				r.Histogram("z_seconds", "c", nil).Observe(0.01)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("x_total", "a").Value(); got != 8000 {
		t.Fatalf("x_total = %d, want 8000", got)
	}
	if got := r.Histogram("z_seconds", "c", nil).Count(); got != 8000 {
		t.Fatalf("z_seconds count = %d, want 8000", got)
	}
}

// TestKindMismatchPanics: re-registering a name as a different type is a
// programming error, loudly.
func TestKindMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r := NewRegistry()
	r.Counter("m", "")
	r.Gauge("m", "")
}

// TestHistogramBuckets pins the boundary semantics: a value equal to an
// upper bound lands in that bucket (le is inclusive).
func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 2})
	h.Observe(1) // le="1"
	h.Observe(2) // le="2"
	h.Observe(3) // +Inf
	cum := h.snapshot()
	if cum[0] != 1 || cum[1] != 2 || cum[2] != 3 {
		t.Fatalf("cumulative buckets %v, want [1 2 3]", cum)
	}
	if h.Sum() != 6 || h.Count() != 3 {
		t.Fatalf("sum=%v count=%v", h.Sum(), h.Count())
	}
}

// TestSpan measures a real sleep into the histogram.
func TestSpan(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("op_seconds", "", nil)
	sp := StartSpan(h)
	time.Sleep(5 * time.Millisecond)
	sp.End()
	if h.Count() != 1 {
		t.Fatalf("span not observed: count %d", h.Count())
	}
	if h.Sum() < 0.004 {
		t.Fatalf("span duration %v implausibly small", h.Sum())
	}
}

// TestHTTPEndpoints boots the real server on a loopback port and checks all
// three endpoint families.
func TestHTTPEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("hits_total", "test counter").Add(12)
	srv, err := StartHTTP("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}

	if m := get("/metrics"); !strings.Contains(m, "hits_total 12") {
		t.Fatalf("/metrics missing counter:\n%s", m)
	}
	var snap StatusSnapshot
	if err := json.Unmarshal([]byte(get("/statusz")), &snap); err != nil {
		t.Fatalf("/statusz not JSON: %v", err)
	}
	if len(snap.Metrics["hits_total"]) != 1 || snap.Metrics["hits_total"][0].Value != 12 {
		t.Fatalf("/statusz metric wrong: %+v", snap.Metrics)
	}
	if snap.NumGoroutine <= 0 || snap.GoVersion == "" {
		t.Fatalf("/statusz vitals missing: %+v", snap)
	}
	if p := get("/debug/pprof/cmdline"); len(p) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}
