package main

// stream_cycle: 16 streaming sessions, each pre-fed one full window (3600
// simulated seconds of simulator output, one home with injected fake
// commands), then driven in ingest→verdict cycles: POST a 32-event NDJSON
// batch to /v1/streams/{id}/events, then GET /v1/streams/{id}. It
// exercises what batch detect never touches — NDJSON decode, window
// merge, re-fuse-only-on-change, the fusion feature cache at high reuse.
//
// Every fifth cycle of a session sends a stale batch: events older than
// the window's age bound. They fall straight out, the window is unchanged,
// and the verdict must be a cache read (refusions stays put) — so a change
// that buys ingest speed by re-fusing more often shows up as a cost.
// (Stale rather than duplicate events: Manager.Ingest does not dedupe, so
// re-sending the previous batch would grow the window.)
//
// Phase A is an open loop at a fixed 200 cycles/s on two connections and
// gives cycle_p50_ms / cycle_p95_ms, printed and not gated (see
// detect_http). Each session belongs to one worker, so its cycles stay in
// order. Phase B is a closed loop of ONE connection and gives the gated
// numbers: op_p50_ms (a cycle's service time), sat_ops_per_s in cycles/s
// (× 32 = stream_events_per_s) and cpu_ms_per_op; its p95 is op_p95_ms.
//
// One connection, so that the number is a cycle's service time:
// fusion.Builder serialises BuildOnline — half of a re-fusing cycle —
// behind one mutex, and a second connection would only queue on it.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"fexiot/internal/eventlog"
	"fexiot/internal/graph"
	"fexiot/internal/rules"
	"fexiot/internal/serve"
	"fexiot/internal/stream"
)

const (
	streamRate     = 200 // cycles/s, phase A
	streamSessions = 16
	batchEvents    = 32
	windowAge      = 3600 // stream.Options default MaxWindowAge, simulated seconds
	windowEvents   = 4096 // stream.Options default MaxWindowEvents
	staleEvery     = 5
	ndjsonType     = "application/x-ndjson"
)

// feed is one session's seeded input: the rules, the events that fill the
// first window, and the batches that follow. When the batches run out the
// feed laps: the same batches again, shifted windowAge later, which keeps
// event time strictly advancing.
type feed struct {
	rules   []*rules.Rule
	prefill []eventlog.Event
	batches [][]eventlog.Event
	stale   []byte // NDJSON of events that are always older than the window
}

// batch returns fresh batch number j.
func (f *feed) batch(j int) []eventlog.Event {
	src := f.batches[j%len(f.batches)]
	shift := int64(j/len(f.batches)) * windowAge
	out := make([]eventlog.Event, len(src))
	for i, e := range src {
		e.Time += shift
		out[i] = e
	}
	return out
}

func genFeed(h home, seed int64, attack bool) (*feed, error) {
	log := cleanedLog(h, 2*windowAge, seed, attack)
	f := &feed{rules: h.rules}
	var tail []eventlog.Event
	for _, e := range log {
		if e.Time < windowAge {
			f.prefill = append(f.prefill, e)
		} else {
			tail = append(tail, e)
		}
	}
	for ; len(tail) >= batchEvents; tail = tail[batchEvents:] {
		f.batches = append(f.batches, tail[:batchEvents])
	}
	if len(f.prefill) < 2*batchEvents || len(f.batches) < 8 {
		return nil, fmt.Errorf("home too quiet: %d window events, %d batches", len(f.prefill), len(f.batches))
	}
	// The stale batch: the log's first events, all stamped with the first
	// one's time. A quiet home's first 32 events can span minutes — longer
	// than the lead-in moves the age bound — so their own times would not
	// all be stale.
	old := append([]eventlog.Event(nil), f.prefill[:batchEvents]...)
	for i := range old {
		old[i].Time = old[0].Time
	}
	f.stale = ndjson(old)
	return f, nil
}

// session is the client's view of one streaming session. Only its owning
// worker touches it.
type session struct {
	feed      *feed
	id        string
	cycles    int // cycles sent so far
	fresh     int // fresh batches sent so far
	refusions int64
	recent    []eventlog.Event // the newest events sent, enough to rebuild the window
}

// remember appends sent events, keeping just over one window of them.
func (s *session) remember(evs []eventlog.Event) {
	s.recent = append(s.recent, evs...)
	if over := len(s.recent) - (windowEvents + batchEvents); over > 0 {
		s.recent = append(s.recent[:0:0], s.recent[over:]...)
	}
}

// next advances the session by one cycle and returns the NDJSON body to
// send and whether it is the stale batch (every staleEvery-th cycle).
func (s *session) next() (body []byte, stale bool) {
	stale = s.cycles%staleEvery == staleEvery-1
	s.cycles++
	if stale {
		return s.feed.stale, true
	}
	evs := s.feed.batch(s.fresh)
	s.fresh++
	s.remember(evs)
	return ndjson(evs), false
}

// window rebuilds what Manager.Ingest keeps: events no older than the
// newest minus the age bound, the newest windowEvents of them.
func (s *session) window() eventlog.Log {
	cutoff := s.recent[len(s.recent)-1].Time - windowAge
	lo := 0
	for lo < len(s.recent) && s.recent[lo].Time < cutoff {
		lo++
	}
	w := s.recent[lo:]
	if over := len(w) - windowEvents; over > 0 {
		w = w[over:]
	}
	return append(eventlog.Log(nil), w...)
}

type streamEnv struct {
	st       *stack
	seed     int64
	sessions []*session
}

func setupStream(c runCfg) (env, error) {
	st, err := startStack(defaultDims, servePlan)
	if err != nil {
		return nil, err
	}
	e := &streamEnv{st: st, seed: c.seed}
	feeds, err := genFeeds(c.seed)
	if err != nil {
		st.close()
		return nil, err
	}
	for _, f := range feeds {
		s := &session{feed: f}
		if err := e.open(s); err != nil {
			st.close()
			return nil, err
		}
		e.sessions = append(e.sessions, s)
	}
	// One full rotation per session — four fresh cycles push the window's
	// age bound past the stale batch, then the first stale cycle — leaves
	// every cache warm and every session at the same point of its rotation.
	if !warm(c.workers, staleEvery*streamSessions, e.op) {
		st.close()
		return nil, errWarm
	}
	return e, nil
}

// genFeeds picks and simulates the sessions' homes on every core. A
// cycle's cost grows with the events in the window, and a quiet home's
// window can hold a quarter of a busy one's: for each session the busiest
// of four candidate homes of the same size (by a 1200-s trial simulation)
// is used, so nearly every window sits at the 4096-event cap and a seed's
// luck with quiet homes does not set the numbers. Session 0's log carries
// injected fake commands.
func genFeeds(seed int64) ([]*feed, error) {
	const candidates, trialSteps = 4, 1200
	var pools [candidates][]home
	for p := range pools {
		var err error
		if pools[p], err = genHomes(seed, 50+p, streamSessions, 20, 11); err != nil { // 20–30 rules
			return nil, err
		}
	}
	feeds := make([]*feed, streamSessions)
	errs := make([]error, streamSessions)
	var wg sync.WaitGroup
	for w := 0; w < workerCount(); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < streamSessions; i += workerCount() {
				best, most := pools[0][i], -1
				for p := range pools {
					if n := len(cleanedLog(pools[p][i], trialSteps, mix(seed, 6, i), false)); n > most {
						best, most = pools[p][i], n
					}
				}
				feeds[i], errs[i] = genFeed(best, mix(seed, 6, i), i == 0)
			}
		}(w)
	}
	wg.Wait()
	return feeds, errors.Join(errs...)
}

// open creates the session over HTTP and pre-feeds its window in chunks
// that stay under the 1 MiB body cap.
func (e *streamEnv) open(s *session) error {
	body, err := json.Marshal(stream.CreateRequest{Rules: s.feed.rules})
	if err != nil {
		return err
	}
	status, out := e.st.do(0, http.MethodPost, "/v1/streams", jsonType, body)
	var cr stream.CreateResponse
	if status != http.StatusCreated || json.Unmarshal(out, &cr) != nil || cr.ID == "" {
		return fmt.Errorf("creating stream session: status %d", status)
	}
	s.id = cr.ID
	for evs := s.feed.prefill; len(evs) > 0; {
		n := min(len(evs), 1024)
		if status, _ := e.st.do(0, http.MethodPost, "/v1/streams/"+s.id+"/events",
			ndjsonType, ndjson(evs[:n])); status != http.StatusOK {
			return fmt.Errorf("pre-feeding stream session: status %d", status)
		}
		s.remember(evs[:n])
		evs = evs[n:]
	}
	return nil
}

func (e *streamEnv) close() { e.st.close() }

// sessionOf maps operation k of worker w (of `workers`) to one of w's
// sessions.
func (e *streamEnv) sessionOf(w, k, workers int) *session {
	own := (len(e.sessions) - w + workers - 1) / workers // sessions w, w+workers, …
	return e.sessions[w+workers*((k/workers)%own)]
}

func (e *streamEnv) op(w, k int) (int, bool) {
	return 0, e.cycle(w, e.sessionOf(w, k, len(e.st.conns)))
}

// soloOp is op for a phase run by a single worker, which can therefore
// walk all the sessions.
func (e *streamEnv) soloOp(w, k int) (int, bool) {
	return 0, e.cycle(w, e.sessions[k%len(e.sessions)])
}

// cycle is one ingest→verdict round trip with its correctness gate: the
// ingest reply says whether the window changed, exactly when a fresh batch
// was sent, and the verdict reflects it — refusions moves by one for a
// fresh batch and not at all for a stale one.
func (e *streamEnv) cycle(w int, s *session) bool {
	body, stale := s.next()
	status, out := e.st.do(w, http.MethodPost, "/v1/streams/"+s.id+"/events", ndjsonType, body)
	var ing stream.IngestResponse
	if status != http.StatusOK || json.Unmarshal(out, &ing) != nil ||
		ing.Ingested != batchEvents || ing.Changed == stale {
		return false
	}
	v, ok := e.verdict(w, s)
	if !stale {
		s.refusions++
	}
	return ok && v.Refusions == s.refusions
}

func (e *streamEnv) verdict(w int, s *session) (stream.VerdictResponse, bool) {
	status, out := e.st.do(w, http.MethodGet, "/v1/streams/"+s.id, "", nil)
	var v stream.VerdictResponse
	if status != http.StatusOK || json.Unmarshal(out, &v) != nil {
		return v, false
	}
	return v, finite01(v.Score) && finite(v.DriftScore) && v.Nodes >= 1 && v.SnapshotSeq >= 1
}

func (e *streamEnv) run(c runCfg) result {
	a := openLoop(streamRate, c.dur(0.3), c.workers, true, e.op)
	b := closedLoop(c.dur(0.7), 1, true, e.soloOp)
	res := streamResult(a, b)
	e.checkFinal(&res)
	return res
}

func streamResult(a, b phase) result {
	r := loopResult(a, b, 0)
	ms, at := a.latencies(0)
	p := sliceQuiet(ms, at, 1, 100, 50, 95)
	r.named["cycle_p50_ms"], r.named["cycle_p95_ms"] = p[0], p[1]
	r.named["stream_events_per_s"] = r.e2e["sat_ops_per_s"] * batchEvents
	return r
}

// checkFinal holds stream ≡ batch: each session's final rolling verdict
// equals BuildOnlineGraph + Detect in-process over the same window.
func (e *streamEnv) checkFinal(res *result) {
	for _, s := range e.sessions {
		win := s.window()
		got, ok := e.verdict(0, s)
		want, err := e.st.sys.Detect(e.st.sys.BuildOnlineGraph(s.feed.rules, win))
		if !ok || err != nil || got.WindowEvents != len(win) ||
			got.Score != want.Score || got.DriftScore != want.DriftScore {
			res.fail("session %s: rolling verdict (score %v, drift %v, %d events) != batch verdict (score %v, drift %v, %d events): %v",
				s.id, got.Score, got.DriftScore, got.WindowEvents, want.Score, want.DriftScore, len(win), err)
		}
	}
}

func (e *streamEnv) trace(c runCfg, rec *recorder) (map[string]float64, result) {
	layer := map[string]float64{}
	res, d := e.st.reference(layer, func() (phase, result) {
		a := openLoop(streamRate, c.dur(0.2), c.workers, true, e.op)
		b := closedLoop(c.dur(0.2), 1, true, e.soloOp)
		res := streamResult(a, b)
		e.checkFinal(&res)
		return a, res
	})
	layer["stream.refusion_ratio"] = d.sum("fexiot_stream_refusions_total") / float64(res.attempted)
	layer["fusion.feature_cache_hit_ratio"] = ratio(d.sum("fexiot_stream_feature_cache_hits_total"),
		d.sum("fexiot_stream_feature_cache_misses_total"))

	// Two kits with their own copies of the sessions, so the untraced and
	// the traced replay see the same windows.
	replay := func(rec *recorder, n int, budget time.Duration) (int, time.Duration, error) {
		k := newKit(defaultDims, servePlan)
		defer k.close()
		r, err := newStreamReplayer(k, rec, e.sessions)
		if err != nil {
			return 0, 0, err
		}
		n, took := replayLoop(n, budget, r.cycleOp)
		return n, took, nil
	}
	n, plain, err := replay(nil, 0, c.dur(0.3))
	if err == nil {
		var traced time.Duration
		if _, traced, err = replay(rec, n, time.Hour); err == nil {
			layer["trace.overhead_ratio"] = traced.Seconds() / plain.Seconds()
		}
	}
	if err != nil {
		res.fail("replay: %v", err)
	}

	self := rec.selfTimesUS()
	layer["eventlog.ndjson_decode_us_per_event"] = medianSelfUS(self, "eventlog.ndjson_decode") / batchEvents
	layer["stream.ingest_us"] = medianSelfUS(self, "stream.ingest")
	layer["stream.verdict_refuse_us"] = median(rec.durationsUS("stream.verdict_refuse"))
	layer["stream.verdict_cached_us"] = median(rec.durationsUS("stream.verdict_cached"))
	layer["fusion.online_us"] = medianSelfUS(self, "fusion.online")
	inferLayersInto(layer, self)
	// A cycle's attributed time: four of every five cycles re-fuse.
	fresh := float64(staleEvery-1) / staleEvery
	attributed := medianSelfUS(self, "eventlog.ndjson_decode") + layer["stream.ingest_us"] +
		fresh*layer["stream.verdict_refuse_us"] + (1-fresh)*layer["stream.verdict_cached_us"] +
		2*layer["serve.encode_us"]
	layer["http.residual_us"] = res.named["cycle_p50_ms"]*1e3 - attributed

	var gs []*graph.Graph
	for _, s := range e.sessions {
		gs = append(gs, e.st.sys.BuildOnlineGraph(s.feed.rules, s.window()))
	}
	matProbes(layer, medianGraph(gs), len(gs[0].Nodes[0].Feature), defaultDims.hidden)

	raw := eventlog.NewSimulator(e.sessions[1].feed.rules, mix(e.seed, 6, 1)).Run(windowAge)
	layer["eventlog.clean_us_per_event"] = timeUS(5, func() { eventlog.Clean(raw) }) / float64(len(raw))
	return layer, res
}

// streamReplayer drives a kit's stream.Manager directly with the sessions'
// feeds, one cycle at a time.
type streamReplayer struct {
	*replayer
	sessions []*session
}

func newStreamReplayer(k *kit, rec *recorder, live []*session) (*streamReplayer, error) {
	r := &streamReplayer{replayer: newReplayer(k, rec)}
	for _, l := range live {
		s := &session{feed: l.feed}
		id, err := k.mgr.Create(s.feed.rules)
		if err != nil {
			return nil, err
		}
		s.id = id
		if _, err := k.mgr.Ingest(id, s.feed.prefill); err != nil {
			return nil, err
		}
		s.remember(s.feed.prefill)
		r.sessions = append(r.sessions, s)
	}
	// The lead-in rotation the live sessions got in set-up, unrecorded.
	r.rec = nil
	for i := 0; i < staleEvery*len(r.sessions); i++ {
		r.cycleOp(i)
	}
	r.rec = rec
	return r, nil
}

// decodeNDJSON is the ingest handler's decoder loop.
func decodeNDJSON(body []byte) []eventlog.Event {
	var evs []eventlog.Event
	for dec := json.NewDecoder(bytes.NewReader(body)); ; {
		var e eventlog.Event
		if err := dec.Decode(&e); err != nil {
			if err != io.EOF {
				panic(err) // the bench's own encoding
			}
			return evs
		}
		evs = append(evs, e)
	}
}

// cycleOp is one ingest→verdict cycle: NDJSON decode → Manager.Ingest →
// Manager.Verdict (BuildOnline, Engine.Detect when the window changed) →
// two serve.WriteJSON replies.
func (r *streamReplayer) cycleOp(i int) {
	rec, k := r.rec, r.k
	s := r.sessions[i%len(r.sessions)]
	body, stale := s.next()
	rw := httptest.NewRecorder()
	var evs []eventlog.Event
	var ing stream.IngestResult
	var v stream.VerdictResult

	root := rec.begin("op.cycle", -1, i)
	rec.call("eventlog.ndjson_decode", root, i, func() { evs = decodeNDJSON(body) })
	rec.call("stream.ingest", root, i, func() { ing, _ = k.mgr.Ingest(s.id, evs) })
	rec.call("serve.encode", root, i, func() {
		serve.WriteJSON(rw, http.StatusOK, stream.IngestResponse{ID: s.id, IngestResult: ing})
	})
	name := "stream.verdict_refuse"
	if stale {
		name = "stream.verdict_cached"
	}
	vs := rec.call(name, root, i, func() { v, _ = k.mgr.Verdict(r.ctx, s.id) })
	if !stale {
		var g *graph.Graph
		win := s.window()
		rec.shadow("fusion.online", vs, i, func() { g = k.builder.BuildOnline(s.feed.rules, win) })
		eng := rec.shadow("serve.engine", vs, i, func() { k.eng.Detect(r.ctx, g) })
		sd := rec.shadow("serve.snapshot_detect", eng, i, func() { k.snap.DetectWith(r.ws, g) })
		rec.shadow("gnn.embed", sd, i, func() { r.ws2.Embed(k.model, g) })
	}
	rec.call("serve.encode", root, i, func() {
		serve.WriteJSON(rw, http.StatusOK, stream.VerdictResponse{ID: s.id,
			Vulnerable: v.Verdict.Vulnerable, Score: v.Verdict.Score,
			Drifting: v.Verdict.Drifting, DriftScore: v.Verdict.DriftScore, Nodes: v.Nodes,
			SnapshotSeq: v.SnapshotSeq, WindowEvents: v.WindowEvents, WindowSpan: v.WindowSpan,
			Refusions: v.Refusions, EventsTotal: v.EventsTotal, DroppedTotal: v.DroppedTotal})
	})
	rec.end(root)
}
