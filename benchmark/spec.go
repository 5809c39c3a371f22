package main

// This file is the benchmark's contract in code: the workloads, the gated
// end-to-end metrics with their bounds, and the ungated per-layer metrics.
// BENCHMARK.json at the repository root lists exactly these names, units
// and bounds (spec_test.go holds the two together), and README.md says
// which end-to-end metric each per-layer metric is expected to move.

type workloadSpec struct {
	name, why string
}

var workloadSpecs = []workloadSpec{
	{"offline_replay", "facade only, no HTTP: core mining, delta and linking do all the work and serve does none; its setup_s is the build-time metric"},
	{"single_cached", "one giantd, 80 % of requests repeat a hot set: the LRU, the X-Cache path and the net/http floor dominate; also covers legacy serve.New"},
	{"sharded_cold", "giantd -shards 4, every request first-time: gram prune, per-shard partial, merge fold and encode do all the work and the caches do none"},
	{"routed_ingest", "giantrouter -wal over 2 shards x 2 replicas, 4 reads to 1 quorum-acked write: router transport, WAL append, follower apply and cache invalidation"},
}

type metricSpec struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
}

// endToEndSpecs are reported by every workload on an untraced run.
// fail_ratio is not among them because a gated metric may never be 0; it
// is the run's failed/attempted pair instead, and any failure at all makes
// the run incorrect.
//
// Every bound is the contract's widest, a quarter. Back-to-back runs on the
// reference box repeat within 1 %, but the box itself (two shared cores)
// drifts between faster and slower phases some 15 % apart that last
// minutes, so over ten runs the interquartile spread of a timing metric
// was anywhere from 5 % to 24 % of its median in four samples, and of peak
// RSS 2-10 % (README.md, Baseline). A bound has to clear the spread it
// will be compared with, with room to spare.
var endToEndSpecs = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"p50_ms", "ms", "lower", 0.25},
	{"p90_ms", "ms", "lower", 0.25},
	{"cpu_ms_per_op", "ms", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.25},
}

// perLayerSpecs are reported by every workload on a traced run; a layer a
// workload does not exercise reads 0.
var perLayerSpecs = []metricSpec{
	// Traced-run bookkeeping. client.* and fail_ratio come from the
	// traced run's own untraced pass over its sample.
	{name: "trace.overhead_ratio", unit: "ratio", better: "lower"},
	{name: "trace.self_sum_error", unit: "ratio", better: "lower"},
	{name: "client.p99_ms", unit: "ms", better: "lower"},
	{name: "client.max_ms", unit: "ms", better: "lower"},
	{name: "fail_ratio", unit: "ratio", better: "lower"},

	// offline_replay: the build (moves setup_s everywhere).
	{name: "synth.gen_ms", unit: "ms", better: "lower"},
	{name: "clickgraph.build_ms", unit: "ms", better: "lower"},
	{name: "core.train_phrase_ms", unit: "ms", better: "lower"},
	{name: "core.train_key_ms", unit: "ms", better: "lower"},
	{name: "core.mine_ms", unit: "ms", better: "lower"},
	{name: "giant.build_self_ms", unit: "ms", better: "lower"},
	{name: "giant.build_rss_mb", unit: "MB", better: "lower"},
	// offline_replay: one ingest (moves p50_ms, p90_ms, ops_per_s there).
	{name: "core.mine_seeds_ms", unit: "ms", better: "lower"},
	{name: "delta.apply_ms", unit: "ms", better: "lower"},
	{name: "giant.ingest_self_ms", unit: "ms", better: "lower"},
	// offline_replay: counts that repeat exactly on one commit.
	{name: "delta.seeds_per_batch", unit: "count", better: "lower"},
	{name: "delta.nodes_added_per_batch", unit: "count", better: "higher"},
	{name: "delta.edges_per_batch", unit: "count", better: "higher"},
	{name: "ontology.nodes_final", unit: "count", better: "higher"},
	{name: "ontology.edges_final", unit: "count", better: "higher"},
	{name: "out.fingerprint", unit: "count", better: "higher"},

	// Serving workloads.
	{name: "serve.cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "serve.handler_hit_ms", unit: "ms", better: "lower"},
	{name: "http.transport_self_ms", unit: "ms", better: "lower"},
	{name: "serve.handler_miss_ms.search", unit: "ms", better: "lower"},
	{name: "serve.handler_miss_ms.node", unit: "ms", better: "lower"},
	{name: "serve.handler_miss_ms.tag", unit: "ms", better: "lower"},
	{name: "serve.handler_miss_ms.rewrite", unit: "ms", better: "lower"},
	{name: "serve.handler_miss_ms.story", unit: "ms", better: "lower"},
	{name: "serve.handler_self_ms.search", unit: "ms", better: "lower"},
	{name: "serve.handler_self_ms.node", unit: "ms", better: "lower"},
	{name: "serve.handler_self_ms.tag", unit: "ms", better: "lower"},
	{name: "serve.handler_self_ms.rewrite", unit: "ms", better: "lower"},
	{name: "serve.handler_self_ms.story", unit: "ms", better: "lower"},
	{name: "ontology.search_ms", unit: "ms", better: "lower"},
	{name: "ontology.sharded_search_ms", unit: "ms", better: "lower"},
	{name: "ontology.candidate_shards_per_query", unit: "count", better: "lower"},
	{name: "ontology.node_ms", unit: "ms", better: "lower"},
	{name: "tagging.tag_ms", unit: "ms", better: "lower"},
	{name: "queryund.analyze_ms", unit: "ms", better: "lower"},
	{name: "storytree.form_ms", unit: "ms", better: "lower"},
	{name: "serve.sharded_overhead_ratio.search", unit: "ratio", better: "lower"},
	{name: "serve.sharded_overhead_ratio.node", unit: "ratio", better: "lower"},
	{name: "serve.sharded_overhead_ratio.tag", unit: "ratio", better: "lower"},
	{name: "serve.sharded_overhead_ratio.rewrite", unit: "ratio", better: "lower"},
	{name: "serve.sharded_overhead_ratio.story", unit: "ratio", better: "lower"},
	{name: "ontology.save_bin_ms", unit: "ms", better: "lower"},
	{name: "ontology.load_bin_ms", unit: "ms", better: "lower"},
	{name: "proc.giantd.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "proc.giantrouter.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "proc.loadgen.cpu_ms_per_op", unit: "ms", better: "lower"},
	{name: "proc.giantd.rss_mb", unit: "MB", better: "lower"},
	{name: "proc.giantrouter.rss_mb", unit: "MB", better: "lower"},

	// routed_ingest.
	{name: "router.read_ms.search", unit: "ms", better: "lower"},
	{name: "router.read_ms.node", unit: "ms", better: "lower"},
	{name: "router.read_ms.tag", unit: "ms", better: "lower"},
	{name: "router.read_ms.rewrite", unit: "ms", better: "lower"},
	{name: "router.read_ms.story", unit: "ms", better: "lower"},
	{name: "router.upstream_calls_per_op", unit: "count", better: "lower"},
	{name: "router.upstream_ms", unit: "ms", better: "lower"},
	{name: "router.self_ms", unit: "ms", better: "lower"},
	{name: "router.ingest_ack_ms", unit: "ms", better: "lower"},
	{name: "wal.append_ms", unit: "ms", better: "lower"},
	{name: "wal.bytes_per_batch", unit: "count", better: "lower"},
	{name: "follower.visible_ms", unit: "ms", better: "lower"},
	{name: "follower.apply_cpu_ms_per_batch", unit: "ms", better: "lower"},
	{name: "router.cache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "router.retry_429", unit: "count", better: "lower"},
	{name: "router.partial_apply_502", unit: "count", better: "lower"},
	{name: "replica.lag_max", unit: "count", better: "lower"},
}

// runSeconds is BENCHMARK.json's run_seconds: the --seconds at which each
// workload's round count below was sized on the reference box (2 cores).
const runSeconds = 15
