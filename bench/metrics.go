package main

// metricDef declares one metric the command prints; names_test.go
// holds BENCHMARK.json to exactly these tables.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is what the driver gates on. The four time-based figures of
// the measured window (ops_per_s, p50_ms, p90_ms, cpu_ms_per_op) are
// not here: on the reference box their run-to-run quartile distance is
// 9-24 % of the median with any estimator, against the 8.3 % a third of
// the contract's largest bound allows, so they are per-layer metrics of
// the client (bench/README.md, "What is gated").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"allocs_per_op", "1", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.10},
}

var perLayer = []metricDef{
	{Name: "codec.encode_request_us", Unit: "us", Better: "lower"},
	{Name: "codec.decode_request_us", Unit: "us", Better: "lower"},
	{Name: "codec.encode_request_allocs", Unit: "1", Better: "lower"},
	{Name: "codec.decode_request_allocs", Unit: "1", Better: "lower"},
	{Name: "codec.request_bytes", Unit: "B", Better: "lower"},
	{Name: "codec.encode_record_us", Unit: "us", Better: "lower"},
	{Name: "codec.decode_record_us", Unit: "us", Better: "lower"},
	{Name: "dgl.marshal_xml_us", Unit: "us", Better: "lower"},
	{Name: "dgl.parse_xml_us", Unit: "us", Better: "lower"},
	{Name: "dgl.validate_us", Unit: "us", Better: "lower"},
	{Name: "dgl.parse_xml_allocs", Unit: "1", Better: "lower"},
	{Name: "dgl.request_xml_bytes", Unit: "B", Better: "lower"},
	{Name: "tenant.verify_us", Unit: "us", Better: "lower"},
	{Name: "tenant.admit_us", Unit: "us", Better: "lower"},
	{Name: "tenant.verify_allocs", Unit: "1", Better: "lower"},
	{Name: "scheduler.acquire_release_us", Unit: "us", Better: "lower"},
	{Name: "shard.owner_of_us", Unit: "us", Better: "lower"},
	{Name: "expr.eval_us", Unit: "us", Better: "lower"},
	{Name: "matrix.submit_us", Unit: "us", Better: "lower"},
	{Name: "matrix.submit_allocs", Unit: "1", Better: "lower"},
	{Name: "matrix.run_dag_us", Unit: "us", Better: "lower"},
	{Name: "matrix.status_us", Unit: "us", Better: "lower"},
	{Name: "matrix.status_detail_us", Unit: "us", Better: "lower"},
	{Name: "matrix.recover_us", Unit: "us", Better: "lower"},
	{Name: "dgms.ingest_us", Unit: "us", Better: "lower"},
	{Name: "dgms.set_meta_us", Unit: "us", Better: "lower"},
	{Name: "dgms.delete_us", Unit: "us", Better: "lower"},
	{Name: "store.append_us", Unit: "us", Better: "lower"},
	{Name: "store.append_batch16_us", Unit: "us", Better: "lower"},
	{Name: "store.open_us", Unit: "us", Better: "lower"},
	{Name: "store.compact_us", Unit: "us", Better: "lower"},
	{Name: "store.bytes_per_flow", Unit: "B", Better: "lower"},
	{Name: "replica.encode_block_us", Unit: "us", Better: "lower"},
	{Name: "replica.decode_block_us", Unit: "us", Better: "lower"},
	{Name: "replica.apply_us", Unit: "us", Better: "lower"},
	{Name: "vdata.key_us", Unit: "us", Better: "lower"},
	{Name: "vdata.lookup_us", Unit: "us", Better: "lower"},
	{Name: "vdata.publish_us", Unit: "us", Better: "lower"},
	{Name: "wire.rtt_us", Unit: "us", Better: "lower"},
	{Name: "wire.submit_noop_us", Unit: "us", Better: "lower"},
	{Name: "wire.submit_noop_xml_us", Unit: "us", Better: "lower"},
	{Name: "wire.batch16_us", Unit: "us", Better: "lower"},
	{Name: "obs.counter_us", Unit: "us", Better: "lower"},
	{Name: "obs.counter_allocs", Unit: "1", Better: "lower"},
	{Name: "obs.histogram_us", Unit: "us", Better: "lower"},
	{Name: "ladder.engine_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.tenant_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.route_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.store_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.replica_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.vdata_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.engine_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.wire_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.tenant_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.route_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.store_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.replica_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "ladder.vdata_cpu_ms", Unit: "ms", Better: "lower"},
	{Name: "wire.frames_per_op", Unit: "1", Better: "lower"},
	{Name: "wire.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "shard.routed_share", Unit: "1", Better: "lower"},
	{Name: "matrix.steps_per_op", Unit: "1", Better: "lower"},
	{Name: "store.records_per_op", Unit: "1", Better: "lower"},
	{Name: "store.fsyncs_per_op", Unit: "1", Better: "lower"},
	{Name: "store.records_per_fsync", Unit: "1", Better: "higher"},
	{Name: "replica.frames_per_op", Unit: "1", Better: "lower"},
	{Name: "replica.ack_timeouts", Unit: "count", Better: "lower"},
	{Name: "vdata.hit_ratio", Unit: "1", Better: "higher"},
	{Name: "tenant.rejections", Unit: "count", Better: "lower"},
	{Name: "scheduler.rejected", Unit: "count", Better: "lower"},
	{Name: "wire.forwards_per_status", Unit: "1", Better: "lower"},
	{Name: "codec.fallback_share", Unit: "1", Better: "lower"},
	{Name: "client.ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "client.p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.p90_ms", Unit: "ms", Better: "lower"},
	{Name: "client.cpu_ms_per_op", Unit: "ms", Better: "lower"},
	{Name: "client.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.status_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.submit_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "1", Better: "higher"},
}
