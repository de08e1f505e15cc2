package main

// The metric and workload tables. BENCHMARK.json at the repository root
// repeats them for the driver; smoke_test.go holds the two in step.

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, share of the parent's median
}

// endToEnd are the metrics a user of the system sees, measured with
// tracing off. An op is one get of the trace (lcc_replay_sim), one
// Get+Flush (miss_churn_sim), one remote adjacency get (lcc_app_wire),
// one rank-iteration (stencil_*), one RPC (serve_*).
//
// Every time is the first decile of its samples (fastest, harness.go).
// The bounds are as wide as the driver allows because the machine is
// loud: on a two-vCPU VM the same code runs 10-15% slower for minutes at
// a time, which no estimator inside one run can see. Ten runs on ten
// seeds spread by 0.03-0.15 of their median.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"wall_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
}

// perLayer are the metrics of single layers, from the traced rep unless
// noted in README.md (probe = isolated loop, count = exact counter).
var perLayer = []metricDef{
	{Name: "app.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "app.uncached_wall_s", Unit: "s", Better: "lower"},

	{Name: "clampi.get_batch_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "clampi.get_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "clampi.flush_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "clampi.calls_per_op", Unit: "count", Better: "lower"},

	{Name: "core.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "core.hit_rate", Unit: "ratio", Better: "higher"},
	{Name: "core.direct_share", Unit: "ratio", Better: "higher"},
	{Name: "core.conflicting_share", Unit: "ratio", Better: "lower"},
	{Name: "core.capacity_share", Unit: "ratio", Better: "lower"},
	{Name: "core.failing_share", Unit: "ratio", Better: "lower"},
	{Name: "core.evictions_per_op", Unit: "count", Better: "lower"},
	{Name: "core.scan_slots_per_eviction", Unit: "count", Better: "lower"},
	{Name: "core.coalesce_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.bytes_from_cache_share", Unit: "ratio", Better: "higher"},
	{Name: "core.notify_patch_share", Unit: "ratio", Better: "higher"},
	{Name: "core.write_hits_per_op", Unit: "count", Better: "higher"},
	{Name: "core.dirty_flushes_per_op", Unit: "count", Better: "lower"},
	{Name: "core.put_populated_ns", Unit: "ns", Better: "lower"},
	{Name: "core.invalidate_ns", Unit: "ns", Better: "lower"},

	{Name: "cuckoo.lookup_hit_ns", Unit: "ns", Better: "lower"},
	{Name: "cuckoo.lookup_miss_ns", Unit: "ns", Better: "lower"},
	{Name: "cuckoo.insert_free_ns", Unit: "ns", Better: "lower"},
	{Name: "cuckoo.insert_full_ns", Unit: "ns", Better: "lower"},
	{Name: "cuckoo.insert_full_fail_share", Unit: "ratio", Better: "lower"},
	{Name: "cuckoo.walk_ns_per_slot", Unit: "ns", Better: "lower"},

	{Name: "storage.alloc_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.free_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.alloc_fail_share", Unit: "ratio", Better: "lower"},
	{Name: "avl.insert_delete_ns", Unit: "ns", Better: "lower"},

	{Name: "notify.push_ns", Unit: "ns", Better: "lower"},
	{Name: "notify.poll_ns_per_item", Unit: "ns", Better: "lower"},

	{Name: "rma.get_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "rma.get_batch_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "rma.get_batch_ops_per_call", Unit: "count", Better: "higher"},
	{Name: "rma.put_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "rma.put_notify_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "rma.flush_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "rma.fence_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "rma.notify_poll_ns_per_call", Unit: "ns", Better: "lower"},
	{Name: "rma.self_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "rma.calls_per_op", Unit: "count", Better: "lower"},
	{Name: "rma.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "rma.errors", Unit: "count", Better: "lower"},

	{Name: "wire.encode_ns_64B", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns_64KiB", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_64B", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_64KiB", Unit: "ns", Better: "lower"},
	{Name: "wire.rpc_p50_us", Unit: "us", Better: "lower"},
	{Name: "wire.rpc_p99_us", Unit: "us", Better: "lower"},
	{Name: "wire.rpc_samples", Unit: "count", Better: "higher"},
	{Name: "wire.server_get_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.server_get_batch_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.server_put_notify_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.server_barrier_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.server_frames_per_op", Unit: "count", Better: "lower"},
	{Name: "wire.server_bytes_out_per_op", Unit: "B", Better: "lower"},
	{Name: "wire.transit_ns_per_req", Unit: "ns", Better: "lower"},
	{Name: "wire.server_cpu_s", Unit: "s", Better: "lower"},
	{Name: "wire.client_cpu_s", Unit: "s", Better: "lower"},

	{Name: "runtime.allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "runtime.heap_inuse_mb", Unit: "MiB", Better: "lower"},

	{Name: "model.virtual_ns_per_op", Unit: "vns", Better: "lower"},
	{Name: "model.lookup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "model.insert_ratio", Unit: "ratio", Better: "lower"},
	{Name: "model.alloc_ratio", Unit: "ratio", Better: "lower"},
	{Name: "model.free_ratio", Unit: "ratio", Better: "lower"},
	{Name: "model.scan_slot_ratio", Unit: "ratio", Better: "lower"},
	{Name: "model.full_hit_ratio", Unit: "ratio", Better: "lower"},

	{Name: "bench.trace_overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bench.residual_share", Unit: "ratio", Better: "lower"},
	{Name: "bench.rep_spread", Unit: "ratio", Better: "lower"},
}

// workloadDef is one workload: why it exists and how to set it up.
type workloadDef struct {
	Name string
	Why  string
	// sim workloads must repeat their counters and virtual time exactly
	// for a fixed seed, and their traced rep must count what the
	// untraced reps count.
	sim bool
	// ungated workloads run in the suite but are not listed in
	// BENCHMARK.json, so the driver neither gates on them nor spends runs
	// on them.
	ungated bool
	setup   func(e *env) (instance, error)
}

// stencil_wire is ungated because it is not steady enough to gate on:
// every iteration is six to eight socket round trips between two
// barrier-coupled ranks and the server, three parties taking turns on
// the CPU in an order that differs from run to run.
var workloads = []workloadDef{
	{Name: "lcc_replay_sim", Why: "hit path: rank 0's batched LCC get sequence replayed without app compute; core classify/serve-hit, cuckoo lookup and copy-out do the work, wire is idle", sim: true, setup: setupLCCReplay},
	{Name: "miss_churn_sim", Why: "miss path: paper IV-A sequence against a 31 MB working set in a 1 MiB cache; cuckoo insert, victim sampling, storage alloc/free; the hit path is almost idle", sim: true, setup: setupMissChurn},
	{Name: "lcc_app_wire", Why: "time to solution: full LCC kernel with its compute over one socket connection; misses are coalesced batch RPCs through codec, socket and server", setup: setupLCCApp},
	{Name: "stencil_sim", Why: "writes beside reads: notified puts, write-back staging, notification drain, fence epochs over the simulated window host; tiny grid so relax is not the bulk", sim: true, setup: setupStencilSim},
	{Name: "stencil_wire", Why: "the other window host: wire.Server put-notify fan-out, barrier and the client notify pump over two connections; cuckoo and storage are idle", ungated: true, setup: setupStencilWire},
	{Name: "serve_small_wire", Why: "per-message cost: raw 64 B gets, no cache, one connection; codec, syscalls and server dispatch, so a cache change predicts no move", setup: setupServeSmall},
	{Name: "serve_large_wire", Why: "per-byte cost: raw 64 KiB gets, no cache, one connection; copies, checksum and buffer allocation, apart from per-message work", setup: setupServeLarge},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
