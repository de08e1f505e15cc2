package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"clampi/internal/core"
)

// statsPerRep are the cache counters of one rep and the ops they cover.
type statsPerRep struct {
	core.Stats
	ops int64
}

// counts turns the exact counters into the core.* count metrics.
func (s statsPerRep) counts(out map[string]float64) {
	gets := float64(s.Gets)
	out["core.hit_rate"] = s.HitRate()
	out["core.direct_share"] = ratio(float64(s.Direct), gets)
	out["core.conflicting_share"] = ratio(float64(s.Conflicting), gets)
	out["core.capacity_share"] = ratio(float64(s.Capacity), gets)
	out["core.failing_share"] = ratio(float64(s.Failing), gets)
	out["core.evictions_per_op"] = ratio(float64(s.Evictions), float64(s.ops))
	out["core.scan_slots_per_eviction"] = s.AvgVisitedPerEviction()
	out["core.coalesce_ratio"] = s.BatchCoalesceRatio()
	out["core.bytes_from_cache_share"] = ratio(float64(s.BytesFromCache), float64(s.BytesFromCache+s.BytesFromNetwork))
	out["core.notify_patch_share"] = ratio(float64(s.NotifyPatches), float64(s.Notifications))
	out["core.write_hits_per_op"] = ratio(float64(s.WriteHits), float64(s.ops))
	out["core.dirty_flushes_per_op"] = ratio(float64(s.DirtyFlushes), float64(s.ops))
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runTraced measures the per-layer metrics: untraced reps for the
// reference wall time, counters and allocation figures, then the traced
// rep on the same construction path, the uncached run, and the probes.
func runTraced(w *workloadDef, e *env, o options) (*report, error) {
	rep := &report{w: w, seed: e.seed}
	inst, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
	}
	defer inst.close()
	out := make(map[string]float64, len(perLayer))
	rep.layers = out

	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	reps, err := measure(w, inst, time.Duration(0.4*o.seconds*float64(time.Second)), 3, true, nil)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.Name, err)
	}
	runtime.ReadMemStats(&m1)
	rep.addReps(reps)
	ops := float64(rep.ops)
	allOps := ops * float64(len(reps))
	out["runtime.allocs_per_op"] = float64(m1.Mallocs-m0.Mallocs) / allOps
	out["runtime.bytes_per_op"] = float64(m1.TotalAlloc-m0.TotalAlloc) / allOps
	out["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	out["runtime.heap_inuse_mb"] = float64(m1.HeapInuse) / (1 << 20)
	out["model.virtual_ns_per_op"] = rep.vns
	out["bench.rep_spread"] = spread(rep.walls)
	rep.stats.counts(out)

	// The traced rep runs three times and the fastest is kept: a burst of
	// the machine during a single rep would pass for some layer's time.
	var (
		tr     *tracer
		traced repResult
	)
	for i := 0; i < 3; i++ {
		t := newTracer()
		cpu0 := cpuSeconds()
		r, err := inst.rep(t, false)
		if err != nil {
			return nil, fmt.Errorf("%s: traced rep: %w", w.Name, err)
		}
		if t.err != nil {
			return nil, t.err
		}
		rep.attempted += r.ops
		rep.failed += r.failed
		// The decorator transparency check: the traced rep must have run
		// the program the untraced reps ran.
		if err := sameCounts(w, reps[0], r); err != nil {
			return nil, fmt.Errorf("%s: traced rep differs from the untraced reps: %w", w.Name, err)
		}
		if tr == nil || r.wall < traced.wall {
			tr, traced = t, r
			out["wire.client_cpu_s"] = cpuSeconds() - cpu0
		}
	}
	if o.out != "" {
		if err := writeSpans(filepath.Join(o.out, w.Name+".spans.csv"), tr.logs); err != nil {
			return nil, err
		}
	}
	sum := tr.summary()
	rep.attribute(tr, sum, traced)

	uncached, err := inst.uncached()
	if err != nil {
		return nil, fmt.Errorf("%s: uncached run: %w", w.Name, err)
	}
	out["app.uncached_wall_s"] = uncached.Seconds()

	if rep.model, err = runProbes(inst, e, out); err != nil {
		return nil, fmt.Errorf("%s: probes: %w", w.Name, err)
	}
	if traced.server != nil {
		rep.attributeWire(tr, sum, traced)
	}
	if s := rep.stats; w.Name == "stencil_sim" || w.Name == "stencil_wire" {
		// Nearly every iteration must still publish both edge rows, or the
		// workload has stopped exercising the write path.
		if puts := ratio(float64(s.WriteBacks), float64(s.Gets)); puts < 0.9 {
			rep.notes = append(rep.notes, fmt.Sprintf("only %.2f puts per halo get: the write path is under-exercised", puts))
		}
	}
	return rep, nil
}

// attribute turns the traced rep's spans into the layer self-time stack
// and the per-call figures.
func (r *report) attribute(tr *tracer, sum traceSum, traced repResult) {
	out := r.layers
	ops := float64(traced.ops)
	// Concurrent ranks each have a log covering the same stretch of wall
	// time, so the time there is to attribute is wall x lanes.
	wall := float64(traced.wall) * float64(max(traced.lanes, 1))

	app, cor, rma := float64(sum.layerSelf("app")), float64(sum.layerSelf("core")), float64(sum.layerSelf("rma"))
	if sum[spClampiGet].calls+sum[spClampiGetBatch].calls+sum[spClampiFlush].calls == 0 && cor > 0 {
		// The app built its own cache (stencil.RunRank): only the epoch
		// listener is visible as core, so app and core are one figure.
		app, cor = app+cor, 0
		r.notes = append(r.notes, "app.self_ns_per_op is app and core combined: the kernel builds its own cache")
	}
	out["app.self_ns_per_op"] = app / ops
	out["core.self_ns_per_op"] = cor / ops
	out["rma.self_ns_per_op"] = rma / ops
	r.stack = []stackRow{
		{"app", app / ops, ratio(app, wall)},
		{"core", cor / ops, ratio(cor, wall)},
		{"rma", rma / ops, ratio(rma, wall)},
	}
	out["bench.residual_share"] = ratio(wall-app-cor-rma, wall)
	// One traced rep against the typical untraced one, not the fastest.
	out["bench.trace_overhead_ratio"] = ratio(traced.wall.Seconds(), median(r.walls))

	out["clampi.get_batch_ns_per_call"] = sum.perCall(spClampiGetBatch)
	out["clampi.get_ns_per_call"] = sum.perCall(spClampiGet)
	out["clampi.flush_ns_per_call"] = sum.perCall(spClampiFlush)
	out["clampi.calls_per_op"] = float64(sum[spClampiGet].calls+sum[spClampiGetBatch].calls+sum[spClampiFlush].calls) / ops

	out["rma.get_ns_per_call"] = sum.perCall(spRMAGet)
	out["rma.get_batch_ns_per_call"] = sum.perCall(spRMAGetBatch)
	out["rma.put_ns_per_call"] = sum.perCall(spRMAPut)
	out["rma.put_notify_ns_per_call"] = sum.perCall(spRMAPutNotify)
	out["rma.flush_ns_per_call"] = sum.perCall(spRMAFlush)
	out["rma.fence_ns_per_call"] = sum.perCall(spRMAFence)
	out["rma.notify_poll_ns_per_call"] = sum.perCall(spRMANotifyPoll)
	var calls, bytes, batchOps, errs int64
	for k := spRMAGet; k < numSpanKinds; k++ {
		calls += sum[k].calls
	}
	for _, t := range tr.wins {
		bytes += t.bytes
		batchOps += t.batchOps
		errs += t.errors
	}
	out["rma.calls_per_op"] = float64(calls) / ops
	out["rma.bytes_per_op"] = float64(bytes) / ops
	out["rma.get_batch_ops_per_call"] = ratio(float64(batchOps), float64(sum[spRMAGetBatch].calls))
	out["rma.errors"] = float64(errs)
}

// attributeWire splits the round trips of a _wire workload with the
// server's own figures: what the server spent handling requests, what
// the codec costs by the probes, and the rest — socket and scheduler.
func (r *report) attributeWire(tr *tracer, sum traceSum, traced repResult) {
	out, d := r.layers, traced.server
	ops := float64(traced.ops)
	out["wire.server_get_ns"] = d.OpNs["get"]
	out["wire.server_get_batch_ns"] = d.OpNs["get_batch"]
	out["wire.server_put_notify_ns"] = d.OpNs["put_notify"]
	out["wire.server_barrier_ns"] = d.OpNs["barrier"]
	out["wire.server_frames_per_op"] = float64(d.FramesIn+d.FramesOut) / ops
	out["wire.server_bytes_out_per_op"] = float64(d.BytesOut) / ops
	out["wire.server_cpu_s"] = d.CPUs

	// Every backend call that crosses the socket is one RPC sample.
	rpc := durations(tr.logs, spRMAGet, spRMAGetBatch, spRMAPut, spRMAPutNotify, spRMAFlush, spRMAFence)
	if n := len(rpc); n > 0 {
		out["wire.rpc_p50_us"] = float64(rpc[n/2]) / 1e3
		out["wire.rpc_p99_us"] = float64(rpc[n*99/100]) / 1e3
		out["wire.rpc_samples"] = float64(n)
	}

	// A frame costs the 64 B figure plus a per-byte slope from the 64 KiB
	// one. The server's handle time already contains encoding and writing
	// the response, so the client side pays: encode request, decode
	// response; the server side, outside handle: decode request.
	perByte := func(kind string) (base, slope float64) {
		base = out["wire."+kind+"_ns_64B"]
		return base, (out["wire."+kind+"_ns_64KiB"] - base) / float64(64<<10-64)
	}
	encBase, _ := perByte("encode")
	decBase, decSlope := perByte("decode")
	reqs := float64(d.requests())
	codec := reqs*(encBase+decBase) + float64(d.FramesOut)*decBase + float64(d.BytesOut)*decSlope
	transit := float64(sum.layerSelf("rma")) - d.handleNs() - codec
	out["wire.transit_ns_per_req"] = ratio(transit, reqs)
}
