package fexiot_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"testing"
	"time"

	"fexiot"
	"fexiot/internal/eventlog"
	"fexiot/internal/obs"
)

// streamServer boots the full fexiot.Serve stack with streaming sessions
// tuned for tests (window caps high enough that nothing ages out, so the
// session window is exactly the ingested set).
func streamServer(t *testing.T, sys *fexiot.System, streams fexiot.StreamOptions) string {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv, err := fexiot.Serve(ctx, sys, fexiot.ServeOptions{
		Addr:           "127.0.0.1:0",
		Workers:        2,
		RequestTimeout: 10 * time.Second,
		Streams:        streams,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return "http://" + srv.Addr()
}

func ndjson(t *testing.T, log fexiot.Log) string {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, e := range log {
		if err := enc.Encode(e); err != nil {
			t.Fatal(err)
		}
	}
	return buf.String()
}

type streamVerdict struct {
	ID           string  `json:"id"`
	Vulnerable   bool    `json:"vulnerable"`
	Score        float64 `json:"score"`
	Drifting     bool    `json:"drifting"`
	DriftScore   float64 `json:"drift_score"`
	Nodes        int     `json:"nodes"`
	SnapshotSeq  uint64  `json:"snapshot_seq"`
	WindowEvents int     `json:"window_events"`
	Refusions    int64   `json:"refusions"`
}

func getVerdict(t *testing.T, base, id string) streamVerdict {
	t.Helper()
	resp, err := http.Get(base + "/v1/streams/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("verdict status %d: %s", resp.StatusCode, body)
	}
	var v streamVerdict
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("bad verdict body %s: %v", body, err)
	}
	return v
}

// TestStreamSessionTracksBatchDetection is the streaming acceptance test:
// a live-socket session's rolling verdict is bit-identical to the batch
// path (BuildOnlineGraph + Detect) on the same window, stays bit-identical
// across a republish (with the sequence advancing), and an attack-injected
// batch changes the fused graph within one refusion.
func TestStreamSessionTracksBatchDetection(t *testing.T) {
	sys, train := smallSystem(t, 17)
	sys.TrainCentral(train, 1, 40)
	base := streamServer(t, sys, fexiot.StreamOptions{
		MaxWindowEvents: 1 << 17,
		MaxWindowAge:    1 << 40, // nothing ages out: window == ingested set
	})

	home := fexiot.GenerateHome("safety", 14, 23)
	raw := fexiot.SimulateHome(home, 1200, 29)
	mid := len(raw) / 2
	clean1 := fexiot.CleanLog(append(fexiot.Log(nil), raw[:mid]...))
	attacked := eventlog.Inject(append(fexiot.Log(nil), raw[mid:]...),
		eventlog.FakeCommands, home, 0.8, 31)
	clean2 := fexiot.CleanLog(attacked)
	if len(clean1) == 0 || len(clean2) == 0 {
		t.Fatalf("degenerate halves: %d/%d events", len(clean1), len(clean2))
	}

	// Create the session over the deployed rules.
	body, err := json.Marshal(map[string]any{"rules": home})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/streams", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	created, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status %d: %s", resp.StatusCode, created)
	}
	var cr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(created, &cr); err != nil {
		t.Fatal(err)
	}

	ingest := func(log fexiot.Log) {
		t.Helper()
		resp, err := http.Post(base+"/v1/streams/"+cr.ID+"/events",
			"application/x-ndjson", strings.NewReader(ndjson(t, log)))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest status %d: %s", resp.StatusCode, b)
		}
	}

	// mirror replays the manager's window semantics client-side so the
	// batch comparison runs on exactly the session's window.
	var window fexiot.Log
	mirror := func(log fexiot.Log) {
		window = append(window, log...)
		sort.SliceStable(window, func(i, j int) bool {
			return window[i].Time < window[j].Time
		})
	}
	batch := func() (fexiot.Verdict, int) {
		t.Helper()
		g := sys.BuildOnlineGraph(home, window)
		v, err := sys.Detect(g)
		if err != nil {
			t.Fatal(err)
		}
		return v, g.N()
	}

	// Phase 1: the clean half. Stream verdict == batch verdict, bitwise.
	ingest(clean1)
	mirror(clean1)
	v1 := getVerdict(t, base, cr.ID)
	want1, nodes1 := batch()
	if v1.Vulnerable != want1.Vulnerable || v1.Score != want1.Score ||
		v1.Drifting != want1.Drifting || v1.DriftScore != want1.DriftScore {
		t.Fatalf("clean window: stream %+v != batch %+v", v1, want1)
	}
	if v1.Nodes != nodes1 || v1.WindowEvents != len(window) {
		t.Fatalf("clean window: nodes=%d/%d window=%d/%d",
			v1.Nodes, nodes1, v1.WindowEvents, len(window))
	}
	if v1.SnapshotSeq != 1 || v1.Refusions != 1 {
		t.Fatalf("clean window: seq=%d refusions=%d, want 1/1", v1.SnapshotSeq, v1.Refusions)
	}

	// Phase 2: a republish re-scores the same window on the new snapshot —
	// no refusion, sequence advances, still bit-identical to batch.
	sys.TrainCentral(train, 1, 40)
	v2 := getVerdict(t, base, cr.ID)
	want2, _ := batch()
	if v2.SnapshotSeq != 2 {
		t.Fatalf("post-republish seq = %d, want 2", v2.SnapshotSeq)
	}
	if v2.Refusions != 1 {
		t.Fatalf("republish triggered a refusion (refusions = %d)", v2.Refusions)
	}
	if v2.Score != want2.Score || v2.Vulnerable != want2.Vulnerable {
		t.Fatalf("post-republish: stream %+v != batch %+v", v2, want2)
	}

	// Phase 3: the attack-injected half changes the fused graph within one
	// refusion, and the verdict still matches the batch path bitwise.
	ingest(clean2)
	mirror(clean2)
	v3 := getVerdict(t, base, cr.ID)
	want3, nodes3 := batch()
	if v3.Refusions != 2 {
		t.Fatalf("attack ingest: refusions = %d, want 2", v3.Refusions)
	}
	if v3.Nodes != nodes3 || v3.Score != want3.Score ||
		v3.Vulnerable != want3.Vulnerable || v3.DriftScore != want3.DriftScore {
		t.Fatalf("attack window: stream %+v != batch (%+v, %d nodes)", v3, want3, nodes3)
	}
	if v3.Nodes <= v1.Nodes {
		t.Fatalf("fake-command injection left the graph at %d nodes (was %d)",
			v3.Nodes, v1.Nodes)
	}
	if v3.Score == v1.Score && v3.Nodes == v1.Nodes {
		t.Fatal("attack ingest changed nothing")
	}
}

// TestStreamMetricsAndStatus checks the operational surface end to end:
// the feature cache reports hits once a session re-fuses overlapping rule
// sets, /v1/status counts live sessions, and /metrics exports the stream
// family.
func TestStreamMetricsAndStatus(t *testing.T) {
	opts := fexiot.DefaultOptions()
	opts.Seed, opts.WordDim, opts.SentenceDim = 37, 24, 32
	opts.Hidden, opts.EmbedDim = 12, 8
	opts.Metrics = obs.NewRegistry()
	sys, err := fexiot.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	var train []*fexiot.Graph
	for home := 0; home < 4; home++ {
		deployed := fexiot.GenerateHome("safety", 18, 37+int64(home))
		train = append(train, sys.BuildGraph(deployed), sys.BuildGraph(deployed))
	}
	sys.TrainCentral(train, 1, 40)
	base := streamServer(t, sys, fexiot.StreamOptions{
		MaxWindowEvents: 1 << 17,
		MaxWindowAge:    1 << 40,
	})

	home := fexiot.GenerateHome("safety", 12, 41)
	log := fexiot.CleanLog(fexiot.SimulateHome(home, 600, 43))
	if len(log) < 4 {
		t.Fatalf("simulator produced only %d events", len(log))
	}
	body, _ := json.Marshal(map[string]any{"rules": home})
	resp, err := http.Post(base+"/v1/streams", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	created, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var cr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(created, &cr); err != nil {
		t.Fatalf("create reply %s: %v", created, err)
	}

	// Two window-changing ingests over the same rule set: the second
	// refusion re-embeds nothing — every rule feature is a cache hit.
	for i := 0; i < 2; i++ {
		half := log[i*len(log)/2 : (i+1)*len(log)/2]
		resp, err := http.Post(base+"/v1/streams/"+cr.ID+"/events",
			"application/x-ndjson", strings.NewReader(ndjson(t, half)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		getVerdict(t, base, cr.ID)
	}

	// /v1/status reports the live session.
	resp, err = http.Get(base + "/v1/status")
	if err != nil {
		t.Fatal(err)
	}
	stBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var st struct {
		Ready          bool   `json:"ready"`
		SnapshotSeq    uint64 `json:"snapshot_seq"`
		NodeFeatureDim int    `json:"node_feature_dim"`
		StreamSessions *int   `json:"stream_sessions"`
	}
	if err := json.Unmarshal(stBody, &st); err != nil {
		t.Fatalf("bad status %s: %v", stBody, err)
	}
	if !st.Ready || st.SnapshotSeq != 1 || st.NodeFeatureDim == 0 {
		t.Fatalf("status %+v, want ready/seq 1/nonzero dim", st)
	}
	if st.StreamSessions == nil || *st.StreamSessions != 1 {
		t.Fatalf("stream_sessions = %v, want 1", st.StreamSessions)
	}

	// /metrics exports the stream family with a warm feature cache.
	resp, err = http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(metrics)
	for _, name := range []string{
		"fexiot_stream_sessions 1",
		"fexiot_stream_refusions_total 2",
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("/metrics missing %q", name)
		}
	}
	hits := metricValue(t, text, "fexiot_stream_feature_cache_hits_total")
	if hits <= 0 {
		t.Fatalf("feature cache hits = %v, want > 0", hits)
	}
}

func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, name+" ") {
			var v float64
			if _, err := fmt.Sscanf(line[len(name)+1:], "%g", &v); err != nil {
				t.Fatalf("unparseable metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("/metrics missing %s", name)
	return 0
}

// TestStreamIdleEvictionEndToEnd pins the janitor through the HTTP
// surface: an untouched session disappears (404 not_found) after its idle
// timeout.
func TestStreamIdleEvictionEndToEnd(t *testing.T) {
	sys, train := smallSystem(t, 19)
	sys.TrainCentral(train, 1, 20)
	base := streamServer(t, sys, fexiot.StreamOptions{
		IdleTimeout: 200 * time.Millisecond, // swept every 50 ms
	})

	home := fexiot.GenerateHome("safety", 10, 47)
	body, _ := json.Marshal(map[string]any{"rules": home})
	resp, err := http.Post(base+"/v1/streams", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	created, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var cr struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(created, &cr); err != nil {
		t.Fatalf("create reply %s: %v", created, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/v1/streams/" + cr.ID)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusNotFound {
			var env struct {
				Err struct {
					Code string `json:"code"`
				} `json:"error"`
			}
			if err := json.Unmarshal(b, &env); err != nil || env.Err.Code != "not_found" {
				t.Fatalf("eviction reply not a not_found envelope: %s", b)
			}
			return // evicted
		}
		if time.Now().After(deadline) {
			t.Fatalf("session still alive after idle timeout (last status %d)",
				resp.StatusCode)
		}
		// Polling resets lastActive — so only poll every ~idle period and
		// rely on the window between polls exceeding the timeout.
		time.Sleep(300 * time.Millisecond)
	}
}
