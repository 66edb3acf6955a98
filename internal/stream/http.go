package stream

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"time"

	"fexiot/internal/serve"
)

// CreateRequest is the JSON body of POST /v1/streams: the session's
// deployed rules, plus an optional initial event batch — the same body
// /v1/detect takes.
type CreateRequest = serve.DetectRequest

// CreateResponse is the JSON reply of POST /v1/streams.
type CreateResponse struct {
	ID           string `json:"id"`
	WindowEvents int    `json:"window_events"`
}

// IngestResponse is the JSON reply of POST /v1/streams/{id}/events.
type IngestResponse struct {
	ID string `json:"id"`
	IngestResult
}

// VerdictResponse is the JSON reply of GET /v1/streams/{id}: the rolling
// verdict plus enough provenance (snapshot seq, window shape, refusion
// count) for a client to reason about how fresh it is.
type VerdictResponse struct {
	ID           string  `json:"id"`
	Vulnerable   bool    `json:"vulnerable"`
	Score        float64 `json:"score"`
	Drifting     bool    `json:"drifting"`
	DriftScore   float64 `json:"drift_score"`
	Nodes        int     `json:"nodes"`
	SnapshotSeq  uint64  `json:"snapshot_seq"`
	WindowEvents int     `json:"window_events"`
	WindowSpan   int64   `json:"window_span_seconds"`
	Refusions    int64   `json:"refusions"`
	EventsTotal  int64   `json:"events_total"`
	DroppedTotal int64   `json:"dropped_total"`
}

// DeleteResponse is the JSON reply of DELETE /v1/streams/{id}.
type DeleteResponse struct {
	ID     string `json:"id"`
	Closed bool   `json:"closed"`
}

func (m *Manager) send(w http.ResponseWriter, status int, body any) {
	if err := serve.WriteJSON(w, status, body); err != nil {
		m.m.writeErrs.Inc()
	}
}

func (m *Manager) sendErr(w http.ResponseWriter, err error) {
	if werr := serve.WriteError(w, err); werr != nil {
		m.m.writeErrs.Inc()
	}
}

// Mount registers the streaming session endpoints on mux:
//
//	POST   /v1/streams             create a session (JSON: rules [+events])
//	POST   /v1/streams/{id}/events ingest an NDJSON event batch
//	GET    /v1/streams/{id}        rolling verdict
//	DELETE /v1/streams/{id}        close the session
//
// All errors use the shared /v1 envelope and code vocabulary.
func (m *Manager) Mount(mux *http.ServeMux, timeout time.Duration) {
	mux.HandleFunc("/v1/streams", func(w http.ResponseWriter, req *http.Request) {
		defer m.recoverPanic(w)
		m.handleCreate(w, req)
	})
	mux.HandleFunc("/v1/streams/", func(w http.ResponseWriter, req *http.Request) {
		defer m.recoverPanic(w)
		m.handleItem(w, req, timeout)
	})
}

// recoverPanic converts a panicking handler into one internal-error reply.
func (m *Manager) recoverPanic(w http.ResponseWriter) {
	if v := recover(); v != nil {
		m.m.panics.Inc()
		m.sendErr(w, fmt.Errorf("stream: handler panicked: %v", v))
	}
}

func (m *Manager) handleCreate(w http.ResponseWriter, req *http.Request) {
	if !serve.AllowMethods(w, req, http.MethodPost) {
		return
	}
	if !serve.RequireContentType(w, req) {
		return
	}
	var in CreateRequest
	if err := serve.ReadJSONCounted(w, req, m.opts.maxBodyBytes(), &in, m.m.fallbacks); err != nil {
		m.sendErr(w, err)
		return
	}
	id, err := m.Create(in.Rules)
	if err != nil {
		m.sendErr(w, err)
		return
	}
	resp := CreateResponse{ID: id}
	if len(in.Events) > 0 {
		res, err := m.Ingest(id, in.Events)
		if err != nil {
			m.sendErr(w, err)
			return
		}
		resp.WindowEvents = res.WindowEvents
	}
	m.send(w, http.StatusCreated, resp)
}

func (m *Manager) handleItem(w http.ResponseWriter, req *http.Request, timeout time.Duration) {
	rest := strings.TrimPrefix(req.URL.Path, "/v1/streams/")
	parts := strings.Split(rest, "/")
	switch {
	case len(parts) == 1 && parts[0] != "":
		id := parts[0]
		switch req.Method {
		case http.MethodGet:
			m.handleVerdict(w, req, id, timeout)
		case http.MethodDelete:
			if err := m.Delete(id); err != nil {
				m.sendErr(w, err)
				return
			}
			m.send(w, http.StatusOK, DeleteResponse{ID: id, Closed: true})
		default:
			serve.AllowMethods(w, req, http.MethodGet, http.MethodDelete)
		}
	case len(parts) == 2 && parts[1] == "events":
		if !serve.AllowMethods(w, req, http.MethodPost) {
			return
		}
		m.handleIngest(w, req, parts[0])
	default:
		m.sendErr(w, fmt.Errorf("%w: no endpoint %s", serve.ErrNotFound, req.URL.Path))
	}
}

func (m *Manager) handleVerdict(w http.ResponseWriter, req *http.Request,
	id string, timeout time.Duration) {
	ctx := req.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	res, err := m.Verdict(ctx, id)
	if err != nil {
		m.sendErr(w, err)
		return
	}
	m.send(w, http.StatusOK, VerdictResponse{
		ID:           id,
		Vulnerable:   res.Verdict.Vulnerable,
		Score:        res.Verdict.Score,
		Drifting:     res.Verdict.Drifting,
		DriftScore:   res.Verdict.DriftScore,
		Nodes:        res.Nodes,
		SnapshotSeq:  res.SnapshotSeq,
		WindowEvents: res.WindowEvents,
		WindowSpan:   res.WindowSpan,
		Refusions:    res.Refusions,
		EventsTotal:  res.EventsTotal,
		DroppedTotal: res.DroppedTotal,
	})
}

// handleIngest consumes an NDJSON batch: one JSON event object per line
// (any whitespace-separated concatenation of JSON objects is accepted).
// Either the whole batch lands in the window or none of it does.
func (m *Manager) handleIngest(w http.ResponseWriter, req *http.Request, id string) {
	if !serve.RequireContentType(w, req, "application/x-ndjson", "application/json") {
		return
	}
	evs, err := serve.ReadEvents(w, req, m.opts.maxBodyBytes(), m.m.fallbacks)
	if err != nil {
		m.sendErr(w, err)
		return
	}
	if len(evs) == 0 {
		m.sendErr(w, fmt.Errorf("%w: empty event batch", serve.ErrBadRequest))
		return
	}
	res, err := m.Ingest(id, evs)
	if err != nil {
		m.sendErr(w, err)
		return
	}
	m.send(w, http.StatusOK, IngestResponse{ID: id, IngestResult: res})
}
