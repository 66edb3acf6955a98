package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fexiot/internal/embed"
	"fexiot/internal/eventlog"
	"fexiot/internal/fusion"
	"fexiot/internal/graph"
	"fexiot/internal/obs"
	"fexiot/internal/rules"
)

// decodeEnvelope parses an error body and fails the test on anything that
// is not a well-formed envelope.
func decodeEnvelope(t *testing.T, body []byte) ErrorEnvelope {
	t.Helper()
	var env ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("error body is not an envelope: %v\n%s", err, body)
	}
	if env.Err.Code == "" || env.Err.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	return env
}

// TestErrorEnvelopeGolden pins the exact error bytes of the /v1 surface:
// a client that string-matches these bodies survives releases.
func TestErrorEnvelopeGolden(t *testing.T) {
	ts, _, home := httpFixture(t, false) // nothing published

	// Empty rule set → bad_request, byte-for-byte.
	resp, body := postJSON(t, ts.URL+"/v1/detect", DetectRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty rules: status %d, want 400", resp.StatusCode)
	}
	const wantEmpty = `{"error":{"code":"bad_request","message":"serve: bad request: rules must be non-empty"}}` + "\n"
	if string(body) != wantEmpty {
		t.Fatalf("empty-rules body:\n got %q\nwant %q", body, wantEmpty)
	}

	// Unpublished engine → not_ready, byte-for-byte.
	resp, body = postJSON(t, ts.URL+"/v1/detect", DetectRequest{Rules: home})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("pre-publish: status %d, want 503", resp.StatusCode)
	}
	const wantNotReady = `{"error":{"code":"not_ready","message":"serve: no model snapshot published yet"}}` + "\n"
	if string(body) != wantNotReady {
		t.Fatalf("pre-publish body:\n got %q\nwant %q", body, wantNotReady)
	}
}

func TestErrorEnvelopeCodes(t *testing.T) {
	ts, _, _ := httpFixture(t, true)

	// Malformed JSON → 400 bad_request.
	r, err := http.Post(ts.URL+"/v1/detect", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, r)
	if r.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed JSON: status %d, want 400", r.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Err.Code != CodeBadRequest {
		t.Fatalf("malformed JSON: code %q, want %q", env.Err.Code, CodeBadRequest)
	}

	// Wrong verb → 405 method_not_allowed with an Allow header.
	g, err := http.Get(ts.URL + "/v1/detect")
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, g)
	if g.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET detect: status %d, want 405", g.StatusCode)
	}
	if allow := g.Header.Get("Allow"); allow != "POST" {
		t.Fatalf("GET detect: Allow %q, want POST", allow)
	}
	if env := decodeEnvelope(t, body); env.Err.Code != CodeMethodNotAllowed {
		t.Fatalf("GET detect: code %q, want %q", env.Err.Code, CodeMethodNotAllowed)
	}

	// Wrong Content-Type → 415 unsupported_media_type.
	r, err = http.Post(ts.URL+"/v1/detect", "text/plain", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, r)
	if r.StatusCode != http.StatusUnsupportedMediaType {
		t.Fatalf("text/plain: status %d, want 415", r.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Err.Code != CodeUnsupportedMedia {
		t.Fatalf("text/plain: code %q, want %q", env.Err.Code, CodeUnsupportedMedia)
	}

	// Unknown /v1 path → 404 not_found envelope, not the mux's plain 404.
	r, err = http.Post(ts.URL+"/v1/nope", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body = readAll(t, r)
	if r.StatusCode != http.StatusNotFound {
		t.Fatalf("/v1/nope: status %d, want 404", r.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Err.Code != CodeNotFound {
		t.Fatalf("/v1/nope: code %q, want %q", env.Err.Code, CodeNotFound)
	}

	// nosniff on every response, success or error.
	if got := r.Header.Get("X-Content-Type-Options"); got != "nosniff" {
		t.Fatalf("X-Content-Type-Options = %q, want nosniff", got)
	}
}

// TestErrorEnvelopeTooLarge pins the oversize-body path: a tiny cap turns
// a normal request into 413 too_large before any parsing work.
func TestErrorEnvelopeTooLarge(t *testing.T) {
	det, drf, _ := fixture(83)
	e := NewEngine(Options{Workers: 1, MaxBodyBytes: 64})
	t.Cleanup(e.Close)
	e.Publish(NewSnapshot(1, det, drf, searchCfg))
	mux := http.NewServeMux()
	e.Mount(mux, nil, time.Second)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	big := `{"rules":[` + strings.Repeat(`{"id":"x"},`, 64) + `{"id":"x"}]}`
	r, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, r)
	if r.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversize body: status %d, want 413\n%s", r.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Err.Code != CodeTooLarge {
		t.Fatalf("oversize body: code %q, want %q", env.Err.Code, CodeTooLarge)
	}
}

// TestErrorEnvelopeOverloaded saturates a depth-1 queue behind a blocked
// worker and pins the shed reply: 429, overloaded, Retry-After.
func TestErrorEnvelopeOverloaded(t *testing.T) {
	det, drf, _ := fixture(89)
	block := make(chan struct{})
	var blocked sync.Once
	e := NewEngine(Options{Workers: 1, QueueDepth: 1,
		FaultHook: func(string) { blocked.Do(func() { <-block }) }})
	t.Cleanup(e.Close)
	t.Cleanup(func() {
		select {
		case <-block:
		default:
			close(block)
		}
	})
	e.Publish(NewSnapshot(1, det, drf, searchCfg))
	ts, home := mountedServer(t, e)

	// One in-flight (stalled in the worker) plus one queued fills the engine.
	inflight := make(chan struct{}, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, _ := postJSON(t, ts.URL+"/v1/detect", DetectRequest{Rules: home})
			resp.Body.Close()
			inflight <- struct{}{}
		}()
	}
	// Wait until both occupy the engine (one running, one queued).
	deadline := time.Now().Add(2 * time.Second)
	for e.Stats().QueueLength < 1 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/detect", DetectRequest{Rules: home})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("surplus request: status %d, want 429\n%s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	if env := decodeEnvelope(t, body); env.Err.Code != CodeOverloaded {
		t.Fatalf("surplus request: code %q, want %q", env.Err.Code, CodeOverloaded)
	}

	close(block)
	<-inflight
	<-inflight
}

// TestStatusEndpoint exercises GET /v1/status across the publish boundary.
func TestStatusEndpoint(t *testing.T) {
	det, drf, _ := fixture(97)
	e := NewEngine(Options{Workers: 2})
	t.Cleanup(e.Close)
	mux := http.NewServeMux()
	e.Mount(mux, nil, time.Second)
	n := 0
	e.MountStatus(mux, StatusInfo{NodeFeatureDim: 40, Sessions: func() int { return n }})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	get := func() StatusResponse {
		t.Helper()
		r, err := http.Get(ts.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, r)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", r.StatusCode, body)
		}
		var out StatusResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("bad status body %s: %v", body, err)
		}
		return out
	}

	before := get()
	if before.Ready || before.SnapshotSeq != 0 {
		t.Fatalf("pre-publish status ready=%v seq=%d, want false/0",
			before.Ready, before.SnapshotSeq)
	}
	if before.Workers != 2 || before.NodeFeatureDim != 40 {
		t.Fatalf("workers=%d dim=%d, want 2/40", before.Workers, before.NodeFeatureDim)
	}
	if before.StreamSessions == nil || *before.StreamSessions != 0 {
		t.Fatalf("stream_sessions = %v, want 0", before.StreamSessions)
	}

	e.Publish(NewSnapshot(7, det, drf, searchCfg))
	n = 3
	after := get()
	if !after.Ready || after.SnapshotSeq != 7 {
		t.Fatalf("post-publish status ready=%v seq=%d, want true/7",
			after.Ready, after.SnapshotSeq)
	}
	if after.StreamSessions == nil || *after.StreamSessions != 3 {
		t.Fatalf("stream_sessions = %v, want 3", after.StreamSessions)
	}

	// POST /v1/status → 405 with Allow: GET.
	r, err := http.Post(ts.URL+"/v1/status", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, r)
	if r.StatusCode != http.StatusMethodNotAllowed || r.Header.Get("Allow") != "GET" {
		t.Fatalf("POST status: %d Allow=%q, want 405/GET\n%s",
			r.StatusCode, r.Header.Get("Allow"), body)
	}
}

// mountedServer mounts an existing engine behind httptest with the same
// offline builder httpFixture uses.
func mountedServer(t *testing.T, e *Engine) (*httptest.Server, []*rules.Rule) {
	t.Helper()
	enc := embed.NewEncoder(24, 32)
	b := fusion.NewBuilder(51, enc)
	build := func(rs []*rules.Rule, log eventlog.Log) (*graph.Graph, error) {
		return b.Offline(rs, len(rs)), nil
	}
	mux := http.NewServeMux()
	e.Mount(mux, build, 5*time.Second)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	home := rules.NewGenerator(21, rules.Archetypes()[0], "h-").RuleSet(14)
	return ts, home
}

func readAll(t *testing.T, r *http.Response) []byte {
	t.Helper()
	defer r.Body.Close()
	var out bytes.Buffer
	if _, err := out.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestNullRuleRejected is the regression for a JSON null among the rules:
// it used to reach fusion and dereference nil — a 500 and a bumped panic
// counter on detect and explain. It is a 400 from the shared admission
// check, byte-for-byte, and nothing panics.
func TestNullRuleRejected(t *testing.T) {
	det, drf, _ := fixture(41)
	reg := obs.NewRegistry()
	e := NewEngine(Options{Workers: 1, Metrics: reg})
	t.Cleanup(e.Close)
	e.Publish(NewSnapshot(1, det, drf, searchCfg))
	ts, _ := mountedServer(t, e)

	const want = `{"error":{"code":"bad_request","message":"serve: bad request: rule 1 is null"}}` + "\n"
	for _, path := range []string{"/v1/detect", "/v1/explain"} {
		r, err := http.Post(ts.URL+path, "application/json",
			strings.NewReader(`{"rules":[{"ID":"r1"},null]}`))
		if err != nil {
			t.Fatal(err)
		}
		body := readAll(t, r)
		if r.StatusCode != http.StatusBadRequest || string(body) != want {
			t.Fatalf("%s with a null rule: %d %q\nwant 400 %q", path, r.StatusCode, body, want)
		}
	}
	if n := reg.Counter("fexiot_serve_panics_total", "").Value(); n != 0 {
		t.Fatalf("panic counter = %d, want 0", n)
	}
}

// TestTrailingBytesRejected is the regression for bytes after the JSON
// value: Decoder.Decode stopped at the closing brace and answered 200.
// Trailing whitespace stays fine; anything else is encoding/json's error.
func TestTrailingBytesRejected(t *testing.T) {
	ts, _, home := httpFixture(t, true)
	good, err := json.Marshal(DetectRequest{Rules: home})
	if err != nil {
		t.Fatal(err)
	}
	post := func(body string) (int, []byte) {
		t.Helper()
		r, err := http.Post(ts.URL+"/v1/detect", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return r.StatusCode, readAll(t, r)
	}
	if status, body := post(string(good) + " \r\n\t\n"); status != http.StatusOK {
		t.Fatalf("trailing whitespace: status %d\n%s", status, body)
	}
	for _, tail := range []string{" trailing garbage", "{}", "]"} {
		status, body := post(string(good) + tail)
		if status != http.StatusBadRequest {
			t.Fatalf("tail %q: status %d, want 400\n%s", tail, status, body)
		}
		env := decodeEnvelope(t, body)
		if env.Err.Code != CodeBadRequest || !strings.Contains(env.Err.Message, "after top-level value") {
			t.Fatalf("tail %q: envelope %+v, want encoding/json's after-top-level-value error", tail, env.Err)
		}
	}
}
