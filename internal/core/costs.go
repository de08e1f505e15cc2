package core

// Cost accounting for cache-management work.
//
// Every piece of CPU work the caching layer performs (lookup, allocation,
// index insertion, eviction scanning, memory copies) advances the owning
// rank's virtual clock by an analytic per-operation cost calibrated to the
// paper's hardware (2.6 GHz Xeon E5-2670). The charge is deterministic and
// immune to the noise of the simulation host (goroutine preemption, GC,
// race-detector instrumentation), so the figures regenerate reproducibly;
// what this implementation costs on the host clock is measured by bench/,
// beside the model (model.*_ratio).

import (
	"clampi/internal/netsim"
	"clampi/internal/simtime"
)

// Modeled per-operation costs (calibrated to a 2.6 GHz Xeon: a handful of
// dependent cache-resident loads each).
const (
	// CostLookup covers the p=4 Cuckoo probes and key compares. Like
	// every constant here it models the paper's Xeon, not the host the
	// simulation runs on: bench/ measures this implementation's lookup
	// (cuckoo.lookup_hit_ns) at a quarter of it, and model.lookup_ratio
	// says so — the figures need the former, the host clock the latter.
	CostLookup = 80 * simtime.Nanosecond
	// CostInsert covers an average Cuckoo insertion: the bounded
	// breadth-first search for a displacement path and its moves.
	CostInsert = 200 * simtime.Nanosecond
	// CostAlloc covers the AVL best-fit search plus descriptor updates.
	CostAlloc = 150 * simtime.Nanosecond
	// CostFree covers descriptor unlink, coalescing and AVL updates.
	CostFree = 120 * simtime.Nanosecond
	// CostPerScanSlot is charged per index slot visited by the
	// eviction sampling procedure.
	CostPerScanSlot = 25 * simtime.Nanosecond
	// CostPerScoredEntry is charged per candidate whose score is
	// computed during victim selection.
	CostPerScoredEntry = 40 * simtime.Nanosecond
	// CostInvalidateBase is the fixed part of a cache invalidation;
	// clearing the index adds CostInvalidatePerSlot per slot.
	CostInvalidateBase = 500 * simtime.Nanosecond
	// CostInvalidatePerSlot models the paper's index memset, so an
	// invalidation costs O(|I_w|) however few entries the index holds.
	// This implementation's host cost is not: cuckoo.Table.Drain pays
	// per entry it finds plus one compare per 64 empty slots.
	// BenchmarkOpInvalidateSparse (two 512 B misses, the closure that
	// completes them and the blanket invalidation of a 4096-slot index)
	// is charged 7551 vns either way; on the host it took 7.6 µs with a
	// tag walk and a memset of the slot array, and takes 1.2–1.3 µs with
	// the drain (2-vCPU VM, three alternating 1 s runs each).
	CostInvalidatePerSlot = simtime.Nanosecond / 1 // 1ns per slot
	// CostBatchPlanPerMiss is charged per coalescible miss for the
	// sort-and-merge planning of a batched get (batch.go).
	CostBatchPlanPerMiss = 30 * simtime.Nanosecond
	// CostNotifyApply is the fixed per-descriptor cost of applying one
	// drained notification (sequence check, lookup decision); the span
	// scan or patch copy is charged separately. The empty-queue probe on
	// the hit path is one atomic load and charges nothing.
	CostNotifyApply = 60 * simtime.Nanosecond
	// CostWriteStage is the fixed per-span cost of staging one
	// write-back span (overlap check, dirty-list bookkeeping); the byte
	// copy is charged via copyCost.
	CostWriteStage = 70 * simtime.Nanosecond
)

// copyCost models a size-byte cache<->user copy.
func copyCost(size int) simtime.Duration { return netsim.MemcpyCost(size) }

// checksumCost models a size-byte FNV-1a integrity hash (resilience.go):
// byte-at-a-time multiply-xor, ~2.5 GB/s on the calibration Xeon, plus a
// small fixed cost.
func checksumCost(size int) simtime.Duration {
	const bytesPerSecond = 2.5e9
	const fixed = 25 * simtime.Nanosecond
	if size < 0 {
		size = 0
	}
	return fixed + simtime.Duration(float64(size)*1e9/bytesPerSecond)
}

// charge advances the clock by the modeled cost est of work just done and
// returns it, for the caller's per-phase accounting.
func (c *Cache) charge(est simtime.Duration) simtime.Duration {
	c.clock.Busy(est)
	return est
}
