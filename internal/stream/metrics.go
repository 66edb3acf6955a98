package stream

import (
	"fexiot/internal/obs"
	"fexiot/internal/serve"
)

// metrics bundles the fexiot_stream_* handles, resolved once at manager
// construction. Every obs handle is nil-safe, so a nil registry keeps the
// streaming hot path on the zero-overhead branch.
type metrics struct {
	sessions    *obs.Gauge
	created     *obs.Counter
	events      *obs.Counter
	refusions   *obs.Counter
	refused     *obs.Counter
	evictions   *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	verdictLag  *obs.Histogram
	writeErrs   *obs.Counter
	panics      *obs.Counter
	fallbacks   *obs.Counter // serve's decode-fallback series, shared
}

func newMetrics(r *obs.Registry) metrics {
	if r == nil {
		return metrics{}
	}
	return metrics{
		sessions: r.Gauge("fexiot_stream_sessions",
			"live streaming detection sessions"),
		created: r.Counter("fexiot_stream_sessions_created_total",
			"streaming sessions ever created"),
		events: r.Counter("fexiot_stream_events_total",
			"events ingested across all sessions"),
		refusions: r.Counter("fexiot_stream_refusions_total",
			"window re-fusions into a fresh online graph"),
		refused: r.Counter("fexiot_stream_refusals_total",
			"session creations shed because the session table was full"),
		evictions: r.Counter("fexiot_stream_evictions_total",
			"sessions evicted by the idle janitor"),
		cacheHits: r.Counter("fexiot_stream_feature_cache_hits_total",
			"node-feature cache hits observed across refusions"),
		cacheMisses: r.Counter("fexiot_stream_feature_cache_misses_total",
			"node-feature cache misses observed across refusions"),
		verdictLag: r.Histogram("fexiot_stream_verdict_lag_seconds",
			"wall time from the newest ingested batch to the refusion that scoped it",
			obs.DefBuckets),
		writeErrs: r.Counter("fexiot_stream_response_write_errors_total",
			"JSON responses whose network write failed after the status line"),
		panics: r.Counter("fexiot_stream_panics_total",
			"panics recovered in stream HTTP handlers"),
		fallbacks: serve.DecodeFallbacks(r),
	}
}
