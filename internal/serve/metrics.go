package serve

import (
	"strconv"

	"fexiot/internal/gnn"
	"fexiot/internal/obs"
)

// metrics bundles the fexiot_serve_* handles, resolved once at engine
// construction. Every obs handle is nil-safe, so a nil registry keeps the
// serving hot path on the zero-overhead branch.
type metrics struct {
	detectDur   *obs.Histogram
	explainDur  *obs.Histogram
	inflight    *obs.Gauge
	queueDepth  *obs.Gauge
	snapshotAge *obs.Gauge
	snapshotSeq *obs.Gauge
	published   *obs.Counter
	shed        *obs.Counter
	panics      *obs.Counter
	writeErrs   *obs.Counter
	fallbacks   *obs.Counter
	scoreCalls  *obs.Counter
	layerRows   *obs.CounterVec
}

// DecodeFallbacks returns the registry's fexiot_serve_decode_fallback_total
// counter (nil, a no-op handle, on a nil registry). The stream endpoints
// decode with this package's readers and count into the same series.
func DecodeFallbacks(r *obs.Registry) *obs.Counter {
	return r.Counter("fexiot_serve_decode_fallback_total",
		"request bodies outside the one-pass decoder's plain shape, decoded by encoding/json")
}

func newMetrics(r *obs.Registry) metrics {
	if r == nil {
		return metrics{}
	}
	dur := r.HistogramVec("fexiot_serve_request_duration_seconds",
		"end-to-end request latency (queue wait + inference)",
		obs.DefBuckets, "endpoint")
	return metrics{
		detectDur:  dur.With("detect"),
		explainDur: dur.With("explain"),
		inflight: r.Gauge("fexiot_serve_inflight",
			"requests currently queued or executing"),
		queueDepth: r.Gauge("fexiot_serve_queue_depth",
			"pending requests in the worker queue"),
		snapshotAge: r.Gauge("fexiot_serve_snapshot_age_seconds",
			"seconds since the live snapshot was frozen"),
		snapshotSeq: r.Gauge("fexiot_serve_snapshot_seq",
			"publish sequence number of the live snapshot"),
		published: r.Counter("fexiot_serve_snapshots_published_total",
			"snapshots published to the engine"),
		shed: r.Counter("fexiot_serve_shed_total",
			"requests rejected immediately because the queue was full"),
		panics: r.Counter("fexiot_serve_panics_total",
			"panics recovered in inference workers and HTTP handlers"),
		writeErrs: r.Counter("fexiot_serve_response_write_errors_total",
			"JSON responses whose network write failed after the status line"),
		fallbacks: DecodeFallbacks(r),
		scoreCalls: r.Counter("fexiot_explain_score_calls_total",
			"model scores of node subsets evaluated by explanation searches"),
		layerRows: r.CounterVec("fexiot_explain_layer_rows_total",
			"GNN layer rows looked up by explanation searches, by layer (0 is the first) and whether the search's memo had them",
			"layer", "result"),
	}
}

// explained adds one explanation's scorer counters, once per Explain.
func (m metrics) explained(st gnn.ScorerStats) {
	m.scoreCalls.Add(int64(st.Calls))
	for l, reused := range st.RowsReused {
		layer := strconv.Itoa(l)
		m.layerRows.With(layer, "reused").Add(int64(reused))
		m.layerRows.With(layer, "computed").Add(int64(st.RowsComputed[l]))
	}
}

func (m metrics) latency(kind reqKind) *obs.Histogram {
	if kind == reqExplain {
		return m.explainDur
	}
	return m.detectDur
}
