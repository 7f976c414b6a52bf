package main

// endToEndNames lists, in report order, the metrics an untraced run
// prints. BENCHMARK.json fixes their bounds.
var endToEndNames = []string{
	"ops_per_s", "p50_ms", "p99_ms", "setup_s", "stored_bytes_per_user_byte", "live_heap_mb",
}

// layerMetric is a per-layer metric's unit and direction.
type layerMetric struct {
	unit           string
	higherIsBetter bool
}

// perLayer names every metric a traced run prints, by layer (the prefix
// is the module's name). A metric a workload does not exercise reads 0
// there.
var perLayer = map[string]layerMetric{
	"gateway.self_p50_ms":       {"ms", false},
	"gateway.shed_frac":         {"ratio", false},
	"gateway.queue_depth_max":   {"count", false},
	"gateway.get_range_p50_ms":  {"ms", false},
	"gateway.put_stream_p50_ms": {"ms", false},
	"gateway.delete_p50_ms":     {"ms", false},

	"core.self_p50_ms":              {"ms", false},
	"core.metadata_mean_ms":         {"ms", false},
	"core.plan_mean_ms":             {"ms", false},
	"core.retrieve_mean_ms":         {"ms", false},
	"core.decode_mean_ms":           {"ms", false},
	"core.plan_cache_hit_rate":      {"ratio", true},
	"core.slow_site_read_share":     {"ratio", false},
	"core.chunks_fetched_per_block": {"count", false},

	"cache.hit_rate":              {"ratio", true},
	"cache.evictions_per_op":      {"count", false},
	"cache.admission_reject_frac": {"ratio", false},

	"metadata.lookup_p50_ms":          {"ms", false},
	"metadata.lookup_p99_ms":          {"ms", false},
	"metadata.register_p50_ms":        {"ms", false},
	"metadata.register_p99_ms":        {"ms", false},
	"metadata.delete_p50_ms":          {"ms", false},
	"metadata.handle_p50_ms":          {"ms", false},
	"metadata.calls_per_op":           {"count", false},
	"metadata.catalog_register_ops_s": {"1/s", true},
	"metadata.catalog_lookup_ops_s":   {"1/s", true},

	"rpc.meta_overhead_p50_ms":     {"ms", false},
	"rpc.site_overhead_p50_ms":     {"ms", false},
	"rpc.wire_bytes_per_user_byte": {"ratio", false},

	"storage.get_chunk_p50_ms":                 {"ms", false},
	"storage.get_chunk_p99_ms":                 {"ms", false},
	"storage.get_range_p50_ms":                 {"ms", false},
	"storage.put_chunk_p50_ms":                 {"ms", false},
	"storage.put_chunk_p99_ms":                 {"ms", false},
	"storage.put_stream_p50_ms":                {"ms", false},
	"storage.handle_get_p50_ms":                {"ms", false},
	"storage.handle_put_p50_ms":                {"ms", false},
	"storage.disk_get_p50_ms":                  {"ms", false},
	"storage.disk_put_p50_ms":                  {"ms", false},
	"storage.disk_bytes_written_per_user_byte": {"ratio", false},
	"storage.calls_per_op":                     {"count", false},
	"storage.site_call_imbalance":              {"ratio", false},

	"process.cpu_ms_per_op":      {"ms", false},
	"process.allocs_per_op":      {"count", false},
	"process.alloc_bytes_per_op": {"B", false},
	"process.gc_pause_total_ms":  {"ms", false},

	"erasure.encode_100k_mb_s": {"MB/s", true},
	"erasure.encode_1m_mb_s":   {"MB/s", true},
	"erasure.decode_100k_mb_s": {"MB/s", true},
	"erasure.decode_1m_mb_s":   {"MB/s", true},

	"loadgen.window_spread": {"ratio", false},
	"loadgen.failed_frac":   {"ratio", false},
	"trace.overhead_frac":   {"ratio", false},
	"trace.rig_ops_per_s":   {"1/s", true},
}
