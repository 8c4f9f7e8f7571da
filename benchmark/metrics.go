package main

// The metric tables: name and unit of everything a run prints. Direction and
// bound live in BENCHMARK.json (read by -compare); a test keeps the two in
// step. README.md says what each metric is and which end-to-end metric each
// layer metric should move on which workload.

type metricDef struct{ name, unit string }

// endToEnd is what `--trace 0` reports, for every workload.
var endToEnd = []metricDef{
	{"lazydet.wall_s", "s"},
	{"consequence.wall_s", "s"},
	{"weak.wall_s", "s"},
	{"lazydet.dlc_total", "DLC"},
	{"lazydet.alloc_mb", "MB"},
	{"lazydet.lat_p50_dlc", "DLC"},
	{"lazydet.lat_p99_dlc", "DLC"},
	{"consequence.lat_p99_dlc", "DLC"},
	{"lazydet.throughput_kdlc", "op/kDLC"},
	{"setup_s", "s"},
}

// exactMetrics are the end-to-end metrics that are functions of (workload,
// seed) alone: two runs of one commit must agree on them to the last digit.
var exactMetrics = map[string]bool{
	"lazydet.dlc_total":       true,
	"lazydet.lat_p50_dlc":     true,
	"lazydet.lat_p99_dlc":     true,
	"consequence.lat_p99_dlc": true,
	"lazydet.throughput_kdlc": true,
}

// perLayer is what `--trace 1` reports, for every workload, under LazyDet
// (the harness.slowdown.*, harness.mp_speedup.* and direct.* rows excepted). A metric whose layer a
// workload bypasses reads 0 there.
var perLayer = []metricDef{
	{"harness.slowdown.lazydet", "x"},
	{"harness.slowdown.consequence", "x"},
	{"harness.slowdown.weak", "x"},
	{"harness.mp_speedup.lazydet", "x"},
	{"harness.mp_speedup.consequence", "x"},
	{"harness.blocked_pct", "%"},
	{"harness.trace_overhead_pct", "%"},
	{"harness.ledger_coverage_pct", "%"},

	{"direct.wall_s", "s"},
	{"direct.ns_per_op", "ns"},

	{"dvm.exec_self_ns", "ns"},
	{"dvm.retired_instr", "count"},
	{"dvm.ns_per_instr", "ns"},
	{"dvm.interp_ns_per_instr", "ns"},
	{"dvm.compiled_ns_per_instr", "ns"},
	{"dvm.compile_ns", "ns"},

	{"core.lock_ns", "ns"},
	{"core.unlock_ns", "ns"},
	{"core.barrier_ns", "ns"},
	{"core.tick_ns", "ns"},
	{"core.exit_ns", "ns"},
	{"core.lock_calls", "count"},
	{"core.tick_calls", "count"},
	{"core.sync_busy_ns", "ns"},
	{"core.spec_runs", "count"},
	{"core.spec_reverts", "count"},
	{"core.spec_success_pct", "%"},
	{"core.spec_acquire_pct", "%"},
	{"core.cs_per_run", "count"},
	{"core.reverted_words", "count"},
	{"core.revert_ns_p50", "ns"},
	{"core.revert_ns_p99", "ns"},
	{"core.commit_elided", "count"},

	{"dlc.turn_waits", "count"},
	{"dlc.blocked_ns", "ns"},
	{"dlc.grant_work", "count"},
	{"dlc.wakes", "count"},
	{"dlc.chain_hits", "count"},
	{"dlc.chain_fast", "count"},
	{"dlc.tick_flushes", "count"},
	{"dlc.grant_ns", "ns"},
	{"dlc.tick_ns", "ns"},

	{"vheap.commits", "count"},
	{"vheap.words_committed", "count"},
	{"vheap.pages_committed", "count"},
	{"vheap.words_scanned", "count"},
	{"vheap.words_per_commit", "count"},
	{"vheap.live_versions", "count"},
	{"vheap.page_pool_hit_pct", "%"},
	{"vheap.frame_pool_hit_pct", "%"},
	{"vheap.load_ns", "ns"},
	{"vheap.store_ns", "ns"},
	{"vheap.commit_ns", "ns"},
	{"vheap.update_ns", "ns"},
	{"vheap.snapshot_ns", "ns"},
	{"vheap.revert_ns", "ns"},
	{"vheap.access_est_ns", "ns"},
	{"vheap.commit_est_ns", "ns"},

	{"mempipe.publishes", "count"},
	{"mempipe.publish_dirty_words_p50", "count"},
	{"mempipe.stage_publishes", "count"},
	{"mempipe.stage_flushes", "count"},
	{"mempipe.publish_ns", "ns"},

	{"detsync.conflict_reverts", "count"},
	{"detsync.hot_lock_revert_share", "fraction"},

	{"opensim.lat_p95_dlc", "DLC"},
	{"opensim.wait_p95_dlc", "DLC"},
	{"opensim.qdepth_max", "count"},
	{"opensim.qdepth_mean", "count"},
	{"opensim.makespan_dlc", "DLC"},
	{"opensim.plan_ns", "ns"},
	{"opensim.run_ns", "ns"},
}
