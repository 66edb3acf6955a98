package serve

import (
	"context"
	"fmt"
	"net/http"
	"time"

	"fexiot/internal/eventlog"
	"fexiot/internal/graph"
	"fexiot/internal/rules"
)

// GraphBuilder fuses a request's rules (and optional event log) into an
// interaction graph. The facade supplies System.BuildGraph /
// System.BuildOnlineGraph; it must be safe for concurrent use. The log is
// lent, not given: a builder must neither mutate it nor retain it (or any
// sub-slice) past its return — a streaming session passes its live window.
type GraphBuilder func(rs []*rules.Rule, log eventlog.Log) (*graph.Graph, error)

// DetectRequest is the JSON body of POST /v1/detect and /v1/explain: the
// deployed automation rules, plus an optional cleaned event log — when
// present the rules and log fuse into an online graph, otherwise the rules
// chain into an offline graph.
type DetectRequest struct {
	Rules  []*rules.Rule `json:"rules"`
	Events eventlog.Log  `json:"events,omitempty"`
}

// DetectResponse is the JSON reply of POST /v1/detect.
type DetectResponse struct {
	Vulnerable  bool    `json:"vulnerable"`
	Score       float64 `json:"score"`
	Drifting    bool    `json:"drifting"`
	DriftScore  float64 `json:"drift_score"`
	Nodes       int     `json:"nodes"`
	SnapshotSeq uint64  `json:"snapshot_seq"`
}

// ExplainResponse is the JSON reply of POST /v1/explain.
type ExplainResponse struct {
	NodeIndices []int    `json:"node_indices"`
	RuleIDs     []string `json:"rule_ids"`
	Score       float64  `json:"score"`
	Fidelity    float64  `json:"fidelity"`
	Sparsity    float64  `json:"sparsity"`
	SnapshotSeq uint64   `json:"snapshot_seq"`
}

// StatusResponse is the JSON reply of GET /v1/status: a cheap operational
// snapshot of the serving engine — what model is live, how big the pool
// is, how loaded the queue is — without scraping /metrics.
type StatusResponse struct {
	Ready              bool    `json:"ready"`
	SnapshotSeq        uint64  `json:"snapshot_seq"`
	SnapshotAgeSeconds float64 `json:"snapshot_age_seconds"`
	NodeFeatureDim     int     `json:"node_feature_dim,omitempty"`
	Workers            int     `json:"workers"`
	QueueDepth         int     `json:"queue_depth"`
	QueueLength        int     `json:"queue_length"`
	ShedTotal          int64   `json:"shed_total"`
	UptimeSeconds      float64 `json:"uptime_seconds"`
	StreamSessions     *int    `json:"stream_sessions,omitempty"`
}

// StatusInfo carries facade-known facts into GET /v1/status: the node
// feature width the live model consumes, and — when streaming sessions are
// mounted — a live session count.
type StatusInfo struct {
	NodeFeatureDim int
	Sessions       func() int
}

// send/sendErr write a response and count network write failures (the only
// thing left to do once the status line is out).
func (e *Engine) send(w http.ResponseWriter, status int, body any) {
	if err := WriteJSON(w, status, body); err != nil {
		e.m.writeErrs.Inc()
	}
}

func (e *Engine) sendErr(w http.ResponseWriter, err error) {
	if werr := WriteError(w, err); werr != nil {
		e.m.writeErrs.Inc()
	}
}

// Mount registers the inference endpoints on mux (typically the
// obs.NewHandler mux, so /v1/* rides next to /metrics), plus a /v1/
// catch-all answering unknown versioned paths with a not_found envelope
// instead of the mux's plain-text 404. timeout bounds each request's queue
// wait + inference (0 disables).
func (e *Engine) Mount(mux *http.ServeMux, build GraphBuilder, timeout time.Duration) {
	mux.HandleFunc("/v1/detect", func(w http.ResponseWriter, req *http.Request) {
		e.handle(w, req, build, timeout, reqDetect)
	})
	mux.HandleFunc("/v1/explain", func(w http.ResponseWriter, req *http.Request) {
		e.handle(w, req, build, timeout, reqExplain)
	})
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, req *http.Request) {
		e.sendErr(w, fmt.Errorf("%w: no endpoint %s", ErrNotFound, req.URL.Path))
	})
}

// MountStatus registers GET /v1/status.
func (e *Engine) MountStatus(mux *http.ServeMux, info StatusInfo) {
	mux.HandleFunc("/v1/status", func(w http.ResponseWriter, req *http.Request) {
		if !AllowMethods(w, req, http.MethodGet) {
			return
		}
		st := e.Stats()
		resp := StatusResponse{
			Ready:              st.SnapshotSeq > 0,
			SnapshotSeq:        st.SnapshotSeq,
			SnapshotAgeSeconds: st.SnapshotAgeSeconds,
			NodeFeatureDim:     info.NodeFeatureDim,
			Workers:            st.Workers,
			QueueDepth:         st.QueueDepth,
			QueueLength:        st.QueueLength,
			ShedTotal:          st.Shed,
			UptimeSeconds:      st.UptimeSeconds,
		}
		if info.Sessions != nil {
			n := info.Sessions()
			resp.StreamSessions = &n
		}
		e.send(w, http.StatusOK, resp)
	})
}

func (e *Engine) handle(w http.ResponseWriter, req *http.Request,
	build GraphBuilder, timeout time.Duration, kind reqKind) {
	// A panicking handler (hostile payload tripping a parser edge) must
	// cost one 500, never the process.
	defer func() {
		if v := recover(); v != nil {
			e.m.panics.Inc()
			e.sendErr(w, fmt.Errorf("%w: %v", ErrPanicked, v))
		}
	}()
	if !AllowMethods(w, req, http.MethodPost) {
		return
	}
	if !RequireContentType(w, req) {
		return
	}
	var in DetectRequest
	if err := ReadJSONCounted(w, req, e.opts.MaxBodyBytes, &in, e.m.fallbacks); err != nil {
		e.sendErr(w, err)
		return
	}
	if err := ValidateRules(in.Rules); err != nil {
		e.sendErr(w, err)
		return
	}
	g, err := build(in.Rules, in.Events)
	if err != nil {
		e.sendErr(w, fmt.Errorf("%w: %v", ErrBadRequest, err))
		return
	}
	if g.N() == 0 {
		e.sendErr(w, fmt.Errorf("%w: rules and events fuse into an empty graph "+
			"(no rule was active in the log)", ErrBadRequest))
		return
	}
	ctx := req.Context()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	switch kind {
	case reqDetect:
		v, seq, err := e.Detect(ctx, g)
		if err != nil {
			e.sendErr(w, err)
			return
		}
		e.send(w, http.StatusOK, DetectResponse{
			Vulnerable:  v.Vulnerable,
			Score:       v.Score,
			Drifting:    v.Drifting,
			DriftScore:  v.DriftScore,
			Nodes:       g.N(),
			SnapshotSeq: seq,
		})
	case reqExplain:
		ex, seq, err := e.Explain(ctx, g)
		if err != nil {
			e.sendErr(w, err)
			return
		}
		out := ExplainResponse{
			NodeIndices: ex.NodeIndices,
			Score:       ex.Score,
			Fidelity:    ex.Fidelity,
			Sparsity:    ex.Sparsity,
			SnapshotSeq: seq,
		}
		for _, r := range ex.Rules {
			if r != nil {
				out.RuleIDs = append(out.RuleIDs, r.ID)
			}
		}
		e.send(w, http.StatusOK, out)
	}
}
