package main

// catalog.go is the benchmark's metric catalog. BENCHMARK.json at the
// repository root lists the same names, units, directions and bounds;
// catalog_test.go fails when the two disagree.

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 18

type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only
}

// endToEnd are the gated metrics. Every workload reports every one of
// them; what the operation is depends on the workload (README.md has the
// table): a detect request, a stream ingest→verdict cycle, a federated
// round, a graph.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms", "lower", 0.25},
	{"sat_ops_per_s", "1/s", "higher", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the traced run's metrics, grouped by the module they time.
// A layer that does no work on a workload reports 0 there.
var perLayer = []metricDef{
	// The operator-facing names of the end-to-end measurements, from the
	// traced run's untraced reference pass. op_p95_ms is the gated
	// operation's tail; it is reported and not gated (README.md, "Tails").
	{name: "e2e.op_p95_ms", unit: "ms", better: "lower"},
	{name: "e2e.detect_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.detect_p95_ms", unit: "ms", better: "lower"},
	{name: "e2e.detect_sat_rps", unit: "1/s", better: "higher"},
	{name: "e2e.online_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.explain_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.online_sat_rps", unit: "1/s", better: "higher"},
	{name: "e2e.cycle_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.cycle_p95_ms", unit: "ms", better: "lower"},
	{name: "e2e.stream_events_per_s", unit: "1/s", better: "higher"},
	{name: "e2e.round_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.comm_round_p50_ms", unit: "ms", better: "lower"},
	{name: "e2e.wire_bytes_per_round", unit: "bytes", better: "lower"},
	{name: "e2e.predict_ms_per_graph", unit: "ms", better: "lower"},
	{name: "e2e.analyse_ms_per_graph", unit: "ms", better: "lower"},

	{name: "loadgen.sent", unit: "count", better: "higher"},
	{name: "loadgen.n", unit: "count", better: "higher"},
	{name: "loadgen.send_lag_p95_ms", unit: "ms", better: "lower"},
	{name: "loadgen.p99_ms", unit: "ms", better: "lower"},

	{name: "http.residual_us", unit: "us", better: "lower"},

	{name: "serve.decode_us", unit: "us", better: "lower"},
	{name: "serve.decode_online_us", unit: "us", better: "lower"},
	{name: "serve.encode_us", unit: "us", better: "lower"},
	{name: "serve.snapshot_detect_us", unit: "us", better: "lower"},
	{name: "serve.engine_overhead_us", unit: "us", better: "lower"},
	{name: "serve.shed_total", unit: "count", better: "lower"},
	{name: "serve.requests_total", unit: "count", better: "higher"},

	{name: "fusion.offline_us", unit: "us", better: "lower"},
	{name: "fusion.online_us", unit: "us", better: "lower"},
	{name: "fusion.node_feature_us", unit: "us", better: "lower"},
	{name: "fusion.feature_cache_hit_ratio", unit: "ratio", better: "higher"},
	{name: "audit.construct_ms_per_graph", unit: "ms", better: "lower"},

	{name: "eventlog.ndjson_decode_us_per_event", unit: "us", better: "lower"},
	{name: "eventlog.clean_us_per_event", unit: "us", better: "lower"},

	{name: "stream.ingest_us", unit: "us", better: "lower"},
	{name: "stream.verdict_refuse_us", unit: "us", better: "lower"},
	{name: "stream.verdict_cached_us", unit: "us", better: "lower"},
	{name: "stream.refusion_ratio", unit: "ratio", better: "lower"},

	{name: "gnn.embed_us", unit: "us", better: "lower"},
	{name: "gnn.train_pair_us", unit: "us", better: "lower"},
	{name: "gnn.classify_drift_us", unit: "us", better: "lower"},

	{name: "autodiff.forward_us", unit: "us", better: "lower"},
	{name: "autodiff.backward_us", unit: "us", better: "lower"},

	{name: "mat.spmm_us", unit: "us", better: "lower"},
	{name: "mat.mul_us", unit: "us", better: "lower"},
	{name: "mat.mulbt_us", unit: "us", better: "lower"},
	{name: "mat.flops_per_detect", unit: "count", better: "lower"},
	{name: "mat.dispatch_per_detect", unit: "count", better: "lower"},
	{name: "mat.arena_hit_ratio", unit: "ratio", better: "higher"},

	{name: "explain.explain_us", unit: "us", better: "lower"},
	{name: "explain.shap_us", unit: "us", better: "lower"},
	{name: "explain.score_calls_per_explain", unit: "count", better: "lower"},

	{name: "fedproto.bytes_up_per_round", unit: "bytes", better: "lower"},
	{name: "fedproto.bytes_down_per_round", unit: "bytes", better: "lower"},
	{name: "fedproto.server_share_ms", unit: "ms", better: "lower"},
	{name: "fedproto.checkpoint_ms", unit: "ms", better: "lower"},

	{name: "codec.encode_us.raw64", unit: "us", better: "lower"},
	{name: "codec.encode_us.q8", unit: "us", better: "lower"},
	{name: "codec.encode_us.topk", unit: "us", better: "lower"},
	{name: "codec.decode_us.raw64", unit: "us", better: "lower"},
	{name: "codec.decode_us.q8", unit: "us", better: "lower"},
	{name: "codec.decode_us.topk", unit: "us", better: "lower"},
	{name: "codec.ratio_q8", unit: "ratio", better: "higher"},

	{name: "fed.local_train_ms", unit: "ms", better: "lower"},
	{name: "fed.aggregate_ms.fedavg", unit: "ms", better: "lower"},
	{name: "fed.aggregate_ms.trimmed", unit: "ms", better: "lower"},

	{name: "proc.peak_rss_mb", unit: "MB", better: "lower"},
	{name: "proc.alloc_kb_per_op", unit: "KB", better: "lower"},
	{name: "proc.gc_pause_ms_total", unit: "ms", better: "lower"},
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
}
