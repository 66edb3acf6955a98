package fedproto

import (
	"fexiot/internal/fed"
	"fexiot/internal/obs"
)

// serverMetrics are the nil-gated observability handles of the aggregation
// server. NewServer resolves them once from ServerConfig.Metrics; with a
// nil registry every handle is nil and each instrumentation call in the
// round loop collapses to a nil check.
type serverMetrics struct {
	roundDur   *obs.Histogram  // fexiot_round_duration_seconds
	responders *obs.Gauge      // fexiot_round_responders
	rounds     *obs.Counter    // fexiot_rounds_completed_total
	evicted    *obs.Counter    // fexiot_clients_evicted_total
	rejoined   *obs.Counter    // fexiot_clients_rejoined_total
	strikes    *obs.Counter    // fexiot_client_strikes_total
	live       *obs.Gauge      // fexiot_clients_live
	bytesIn    *obs.Counter    // fexiot_bytes_received_total
	bytesOut   *obs.Counter    // fexiot_bytes_sent_total
	rejected   *obs.Counter    // fexiot_updates_rejected_total
	quorumLost *obs.Counter    // fexiot_quorum_lost_total
	ckptDur    *obs.Histogram  // fexiot_checkpoint_duration_seconds
	aggDur     *obs.Histogram  // fexiot_aggregate_duration_seconds{rule=...}
	updEnc     *obs.CounterVec // fexiot_update_encoded_bytes_total{codec=...}
	updRaw     *obs.Counter    // fexiot_update_raw_bytes_total
	ratio      *obs.Histogram  // fexiot_update_compression_ratio
}

// newServerMetrics resolves the handle set against r for the configured
// aggregation rule (the per-aggregator label on aggregation time).
func newServerMetrics(r *obs.Registry, agg fed.Aggregator) serverMetrics {
	return serverMetrics{
		roundDur: r.Histogram("fexiot_round_duration_seconds",
			"wall time of one federated round: collection, aggregation, checkpoint and replies", nil),
		responders: r.Gauge("fexiot_round_responders",
			"clients whose valid update made it into the most recent closed round"),
		rounds: r.Counter("fexiot_rounds_completed_total",
			"federated rounds closed at or above quorum"),
		evicted: r.Counter("fexiot_clients_evicted_total",
			"clients evicted for silence past the strike budget or broken streams"),
		rejoined: r.Counter("fexiot_clients_rejoined_total",
			"clients re-admitted mid-federation on a fresh connection"),
		strikes: r.Counter("fexiot_client_strikes_total",
			"round-collection timeouts charged to silent clients"),
		live: r.Gauge("fexiot_clients_live",
			"admitted, non-evicted clients"),
		bytesIn: r.Counter("fexiot_bytes_received_total",
			"bytes received from clients across all connections"),
		bytesOut: r.Counter("fexiot_bytes_sent_total",
			"bytes sent to clients across all connections"),
		rejected: r.Counter("fexiot_updates_rejected_total",
			"client updates dropped in collection: timeouts, stream errors, malformed or non-finite payloads"),
		quorumLost: r.Counter("fexiot_quorum_lost_total",
			"rounds that closed below quorum and failed the federation"),
		ckptDur: r.Histogram("fexiot_checkpoint_duration_seconds",
			"wall time of one durable checkpoint write (encode, fsync, rename)", nil),
		aggDur: r.HistogramVec("fexiot_aggregate_duration_seconds",
			"wall time of one round's layer-wise clustering aggregation", nil, "rule").With(agg.Name()),
		updEnc: r.CounterVec("fexiot_update_encoded_bytes_total",
			"wire bytes of accepted client updates, by codec scheme", "codec"),
		updRaw: r.Counter("fexiot_update_raw_bytes_total",
			"dense raw64-equivalent bytes of accepted client updates"),
		ratio: r.Histogram("fexiot_update_compression_ratio",
			"per-update raw64-equivalent bytes over wire bytes",
			[]float64{1, 1.5, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64}),
	}
}
