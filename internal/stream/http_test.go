package stream

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"fexiot/internal/serve"
)

// httpStream stands a manager's HTTP surface up behind httptest.
func httpStream(t *testing.T, opts Options) (*httptest.Server, *Manager, *stubEngine) {
	t.Helper()
	m, eng, _ := testManager(t, opts)
	mux := http.NewServeMux()
	m.Mount(mux, 5*time.Second)
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts, m, eng
}

func do(t *testing.T, method, url, contentType, body string) (*http.Response, []byte) {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf strings.Builder
	b := make([]byte, 4096)
	for {
		n, err := resp.Body.Read(b)
		buf.Write(b[:n])
		if err != nil {
			break
		}
	}
	return resp, []byte(buf.String())
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var env serve.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("not an envelope: %v\n%s", err, body)
	}
	return env.Err.Code
}

func TestStreamHTTPLifecycle(t *testing.T) {
	ts, _, eng := httpStream(t, Options{})
	eng.publish(1)

	// Create with rules and an initial event.
	resp, body := do(t, "POST", ts.URL+"/v1/streams", "application/json",
		`{"rules":[{"id":"r1"}],"events":[{"Time":1,"Device":"lamp","Value":"on"}]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d\n%s", resp.StatusCode, body)
	}
	var created CreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.ID == "" || created.WindowEvents != 1 {
		t.Fatalf("create reply %+v, want id + 1 window event", created)
	}

	// NDJSON ingest.
	nd := `{"Time":2,"Device":"fan","Value":"on"}` + "\n" +
		`{"Time":3,"Device":"door","Value":"open"}` + "\n"
	resp, body = do(t, "POST", ts.URL+"/v1/streams/"+created.ID+"/events",
		"application/x-ndjson", nd)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d\n%s", resp.StatusCode, body)
	}
	var ing IngestResponse
	if err := json.Unmarshal(body, &ing); err != nil {
		t.Fatal(err)
	}
	if ing.Ingested != 2 || ing.WindowEvents != 3 || !ing.Changed {
		t.Fatalf("ingest reply %+v, want 2 ingested / 3 window / changed", ing)
	}

	// Rolling verdict.
	resp, body = do(t, "GET", ts.URL+"/v1/streams/"+created.ID, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verdict: status %d\n%s", resp.StatusCode, body)
	}
	var v VerdictResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if v.Nodes != 3 || v.SnapshotSeq != 1 || v.WindowEvents != 3 || v.Refusions != 1 {
		t.Fatalf("verdict reply %+v, want 3 nodes / seq 1 / 3 window / 1 refusion", v)
	}

	// Delete, then every touch is a 404 envelope.
	resp, body = do(t, "DELETE", ts.URL+"/v1/streams/"+created.ID, "", "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d\n%s", resp.StatusCode, body)
	}
	resp, body = do(t, "GET", ts.URL+"/v1/streams/"+created.ID, "", "")
	if resp.StatusCode != http.StatusNotFound || errCode(t, body) != serve.CodeNotFound {
		t.Fatalf("read after delete: %d %s", resp.StatusCode, body)
	}
}

func TestStreamHTTPErrors(t *testing.T) {
	ts, _, eng := httpStream(t, Options{MaxSessions: 1, MaxBodyBytes: 256})
	eng.publish(1)

	// Empty rules → bad_request.
	resp, body := do(t, "POST", ts.URL+"/v1/streams", "application/json", `{"rules":[]}`)
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != serve.CodeBadRequest {
		t.Fatalf("empty rules: %d %s", resp.StatusCode, body)
	}

	// Wrong verb on the collection → 405 + Allow.
	resp, body = do(t, "GET", ts.URL+"/v1/streams", "", "")
	if resp.StatusCode != http.StatusMethodNotAllowed ||
		resp.Header.Get("Allow") != "POST" ||
		errCode(t, body) != serve.CodeMethodNotAllowed {
		t.Fatalf("GET collection: %d Allow=%q %s",
			resp.StatusCode, resp.Header.Get("Allow"), body)
	}

	// Wrong Content-Type on create → 415.
	resp, body = do(t, "POST", ts.URL+"/v1/streams", "text/csv", "a,b")
	if resp.StatusCode != http.StatusUnsupportedMediaType ||
		errCode(t, body) != serve.CodeUnsupportedMedia {
		t.Fatalf("csv create: %d %s", resp.StatusCode, body)
	}

	// Fill the table → 429 overloaded with Retry-After.
	resp, _ = do(t, "POST", ts.URL+"/v1/streams", "application/json", `{"rules":[{"id":"r1"}]}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first create: %d", resp.StatusCode)
	}
	resp, body = do(t, "POST", ts.URL+"/v1/streams", "application/json", `{"rules":[{"id":"r2"}]}`)
	if resp.StatusCode != http.StatusTooManyRequests ||
		resp.Header.Get("Retry-After") != "1" ||
		errCode(t, body) != serve.CodeOverloaded {
		t.Fatalf("table full: %d Retry-After=%q %s",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}

	// Unknown id → not_found.
	resp, body = do(t, "GET", ts.URL+"/v1/streams/nope", "", "")
	if resp.StatusCode != http.StatusNotFound || errCode(t, body) != serve.CodeNotFound {
		t.Fatalf("unknown id: %d %s", resp.StatusCode, body)
	}

	// Bad NDJSON record → bad_request naming the record.
	resp, body = do(t, "POST", ts.URL+"/v1/streams/s1/events", "application/x-ndjson",
		`{"Time":1,"Device":"a","Value":"on"}`+"\n"+`{broken`)
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != serve.CodeBadRequest {
		t.Fatalf("bad ndjson: %d %s", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "record 2") {
		t.Fatalf("bad-record error does not name the record: %s", body)
	}

	// Empty batch → bad_request.
	resp, body = do(t, "POST", ts.URL+"/v1/streams/s1/events", "application/x-ndjson", "")
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != serve.CodeBadRequest {
		t.Fatalf("empty batch: %d %s", resp.StatusCode, body)
	}

	// Oversize NDJSON body → 413 too_large.
	big := strings.Repeat(`{"Time":1,"Device":"aaaaaaaaaaaaaaaa","Value":"on"}`+"\n", 32)
	resp, body = do(t, "POST", ts.URL+"/v1/streams/s1/events", "application/x-ndjson", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge ||
		errCode(t, body) != serve.CodeTooLarge {
		t.Fatalf("oversize batch: %d %s", resp.StatusCode, body)
	}

	// Junk sub-path → not_found.
	resp, body = do(t, "POST", ts.URL+"/v1/streams/s1/events/extra", "application/json", "{}")
	if resp.StatusCode != http.StatusNotFound || errCode(t, body) != serve.CodeNotFound {
		t.Fatalf("junk path: %d %s", resp.StatusCode, body)
	}
}

// TestStreamCreateNullRuleRejected is the regression for the poisoned
// session: a null rule used to create a session (201) whose every verdict
// then panicked in fusion until idle eviction. Creation refuses it with the
// same 400 detect and explain give, and no session exists afterwards.
func TestStreamCreateNullRuleRejected(t *testing.T) {
	ts, m, eng := httpStream(t, Options{})
	eng.publish(1)
	resp, body := do(t, "POST", ts.URL+"/v1/streams", "application/json", `{"rules":[null]}`)
	const want = `{"error":{"code":"bad_request","message":"serve: bad request: rule 0 is null"}}` + "\n"
	if resp.StatusCode != http.StatusBadRequest || string(body) != want {
		t.Fatalf("null rule: %d %q\nwant 400 %q", resp.StatusCode, body, want)
	}
	if n := m.Sessions(); n != 0 {
		t.Fatalf("%d sessions after a refused create, want 0", n)
	}
}

// TestStreamTrailingBytes pins the two framings apart: the create body is
// one JSON value (bytes after it are a 400), the events body is a
// concatenation of values (a second object is the second event).
func TestStreamTrailingBytes(t *testing.T) {
	ts, _, eng := httpStream(t, Options{})
	eng.publish(1)
	resp, body := do(t, "POST", ts.URL+"/v1/streams", "application/json",
		`{"rules":[{"ID":"r1"}]} trailing garbage`)
	if resp.StatusCode != http.StatusBadRequest || errCode(t, body) != serve.CodeBadRequest {
		t.Fatalf("create with trailing bytes: %d %s", resp.StatusCode, body)
	}
	resp, body = do(t, "POST", ts.URL+"/v1/streams", "application/json", `{"rules":[{"ID":"r1"}]}`+"\n")
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var created CreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	resp, body = do(t, "POST", ts.URL+"/v1/streams/"+created.ID+"/events", "application/x-ndjson",
		`{"Time":1,"Device":"a","Value":"on"} {"Time":2,"Device":"b","Value":"on"}`+"\n\n"+
			`{"Time":3,"Device":"c","Value":"on"}{"Time":4,"Device":"d","Value":"on"}`)
	var ing IngestResponse
	if err := json.Unmarshal(body, &ing); err != nil || resp.StatusCode != http.StatusOK || ing.Ingested != 4 {
		t.Fatalf("concatenated events: %d %s (err %v), want 4 ingested", resp.StatusCode, body, err)
	}
}
