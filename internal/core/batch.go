package core

// Vectorized gets with miss coalescing (DESIGN.md §10).
//
// Applications that request many ranges from the same target inside one
// epoch (LCC neighbor scans, N-body interaction lists, BFS frontier
// probes) pay one LogGP issue overhead o per range when the ranges are
// issued as individual gets. GetBatch serves all hits locally first,
// then sorts the remaining contiguous misses by (target, displacement),
// merges adjacent and overlapping ranges, and issues ONE remote message
// per merged range — amortizing o across the run while still inserting
// every constituent range into the cache individually under the weak-
// caching bound (at most one eviction per constituent miss).

import (
	"errors"
	"slices"

	"clampi/internal/cuckoo"
	"clampi/internal/datatype"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// batchMiss is one coalescible miss of the current batch.
type batchMiss struct {
	op     int // index into the ops slice
	target int
	disp   int
	size   int
	lookup simtime.Duration // lookup cost attributed to this op
	dup    bool             // an earlier miss in this batch has the same key
}

// batchRun is one merged range: misses[from:to) coalesced into the byte
// range [lo, hi) of target, staged in stage.
type batchRun struct {
	target   int
	lo, hi   int
	from, to int
	stage    []byte
}

// GetBatch processes every op as a get_c (identical classification,
// statistics and weak-caching semantics as calling Get per op), but
// coalesces the misses into merged per-target ranges and issues one
// remote message per merged range. Destination buffers obey the usual
// epoch contract: valid only after the next completion call on the
// window. On error the batch may have been partially processed — ops
// preceding the failure were served normally. Like rma.BatchWindow,
// GetBatch neither modifies ops nor keeps the slice.
//
// Empty ops are served through the scalar path; they are counted in
// BatchOps but never coalesced.
func (c *Cache) GetBatch(ops []rma.GetOp) error {
	if len(ops) == 0 {
		return nil
	}
	c.stats.BatchOps += int64(len(ops))
	if len(ops) == 1 {
		op := &ops[0]
		return c.Get(op.Dst, datatype.Byte, len(op.Dst), op.Target, op.Disp)
	}

	// Pass 1: serve hits immediately; defer misses for coalescing.
	misses := c.bmisses[:0]
	for i := range ops {
		op := &ops[i]
		size := len(op.Dst)
		r, err := c.openGet(op.Target, op.Disp, size)
		if err != nil {
			return err
		}
		switch {
		case r != nil && size <= int(r.hit):
			c.fullHit(r, op.Dst, op.Target)
		case r != nil:
			err = c.serveHit(r, op.Dst, op.Target, op.Disp, size)
		case size == 0:
			// Empty transfer: scalar miss path.
			key := cuckoo.Key{Target: op.Target, Disp: op.Disp}
			err = c.serveMiss(key, op.Dst, datatype.Byte, size, op.Target, op.Disp, size)
		default:
			misses = append(misses, batchMiss{op: i, target: op.Target, disp: op.Disp, size: size, lookup: c.last.Lookup})
			continue
		}
		if err != nil {
			return err
		}
		c.emitAccess(op.Target, op.Disp, size, nil)
	}
	if len(misses) == 0 {
		c.bmisses = misses
		return nil
	}

	// Pass 2: plan — sort by (target, disp, size desc), mark duplicate
	// keys (the largest instance admits the entry; repeats become
	// pending hits), and merge adjacent/overlapping ranges per target.
	runs := c.bruns[:0]
	rops := c.bops[:0]
	sortMisses(misses)
	for i := 0; i < len(misses); {
		run := batchRun{target: misses[i].target, lo: misses[i].disp, hi: misses[i].disp + misses[i].size, from: i}
		j := i + 1
		for ; j < len(misses); j++ {
			n := &misses[j]
			if n.target != run.target || n.disp > run.hi {
				break
			}
			// Identical keys are adjacent after the sort; the
			// first (largest) instance admits the entry.
			if n.disp == misses[j-1].disp {
				n.dup = true
			}
			if end := n.disp + n.size; end > run.hi {
				run.hi = end
			}
		}
		run.to = j
		run.stage = c.stageBuf(run.hi - run.lo)
		runs = append(runs, run)
		rops = append(rops, rma.GetOp{Dst: run.stage, Target: run.target, Disp: run.lo})
		i = j
	}
	c.stats.MgmtTime += c.charge(simtime.Duration(len(misses)) * CostBatchPlanPerMiss)

	c.stats.BatchMisses += int64(len(misses))
	c.stats.BatchMessages += int64(len(rops))
	if err := c.issueRanges(rops); err != nil {
		return err
	}

	// One sampling scan serves every capacity eviction of the batch:
	// when the admissions to come exceed the free storage, fill the
	// victim reservoir now instead of paying a scan per miss.
	newBytes := 0
	fresh := 0
	for i := range misses {
		if !misses[i].dup {
			newBytes += misses[i].size
			fresh++
		}
	}
	if newBytes > c.store.FreeBytes() {
		c.fillVictimPool(fresh)
	}
	c.inBatch = true

	// Pass 3: serve every constituent from its staged merged range —
	// deliver the payload to the user buffer and admit the range into
	// the cache (weak caching, at most one eviction each).
	for r := range runs {
		run := &runs[r]
		c.stats.BytesFromNetwork += int64(run.hi - run.lo)
		for _, m := range misses[run.from:run.to] {
			op := &ops[m.op]
			src := run.stage[m.disp-run.lo : m.disp-run.lo+m.size]
			c.last = Access{Lookup: m.lookup, Issued: true}
			copyT := c.copyOut(op.Dst[:m.size], src)
			c.last.Copy = copyT
			c.stats.CopyTime += copyT
			if m.dup {
				c.servePendingDup(m, src)
			} else {
				key := cuckoo.Key{Target: m.target, Disp: m.disp}
				c.finish(c.insertPending(key, src, m.size))
			}
			c.emitAccess(m.target, m.disp, m.size, nil)
		}
	}
	c.inBatch = false
	c.dropVictimPool()
	c.bmisses = misses[:0]
	c.bruns = runs[:0]
	c.bops = rops[:0]
	return nil
}

// servePendingDup classifies a batched miss whose key was admitted by an
// earlier (larger-or-equal) constituent of the same batch: the data is
// already on the wire in the same merged message, so this is a pending
// hit — except when the earlier insert failed, in which case the repeat
// gets its own weak-caching attempt with the same staged source.
func (c *Cache) servePendingDup(m batchMiss, src []byte) {
	key := cuckoo.Key{Target: m.target, Disp: m.disp}
	r, lookupT := c.lookup(key)
	c.last.Lookup += lookupT
	c.stats.LookupTime += lookupT
	if r == nil || r.e.state != statePending {
		c.finish(c.insertPending(key, src, m.size))
		return
	}
	r.last = c.getSeq
	c.last.Type = AccessHit
	c.stats.Hits++
	c.stats.PendingHits++
	// The duplicate-sort order (size descending) guarantees the admitted
	// payload covers this repeat in full.
	c.stats.FullHits++
	c.stats.BytesFromCache += int64(m.size)
}

// issueRanges issues one remote byte-range get per merged range — through
// the transport's native batch call when it implements rma.BatchWindow,
// per-range Window.Get otherwise. Either way exactly one LogGP issue
// overhead o is charged per merged range; the native path additionally
// amortizes the per-call host work.
//
// Under the resilience layer a transient batch failure does not abandon
// the already-delivered prefix: when the backend identifies the failing
// op (*rma.BatchError), that merged range is retried as a unit through
// netGet — with backoff, breaker and verification — and the batch call
// resumes after it. A transient failure the backend cannot attribute
// degrades the remaining ranges to the per-range resilient path.
func (c *Cache) issueRanges(rops []rma.GetOp) error {
	rem := rops
	for c.bwin != nil && len(rem) > 0 {
		err := c.bwin.GetBatch(rem)
		delivered := len(rem)
		var be *rma.BatchError
		if err != nil {
			if !c.resilient || !errors.Is(err, rma.ErrTransient) {
				return err
			}
			if !errors.As(err, &be) {
				break // unattributed transient failure: per-range fallback
			}
			delivered = be.Op // rem[:be.Op] was delivered normally
		}
		// The batch call bypasses tryGet, so verify its delivered ranges
		// here; a corrupted range is refetched as a unit through netGet
		// (which re-verifies).
		for i := 0; i < delivered; i++ {
			r := &rem[i]
			if c.verifyRange(r) != nil {
				if err := c.netGet(r.Dst, datatype.Byte, len(r.Dst), r.Target, r.Disp); err != nil {
					return err
				}
			}
		}
		if err == nil {
			return nil
		}
		// Retry the failing range as a unit and resume the batch after it.
		rem = rem[delivered:]
		r := &rem[0]
		if err := c.netGet(r.Dst, datatype.Byte, len(r.Dst), r.Target, r.Disp); err != nil {
			return err
		}
		rem = rem[1:]
	}
	for i := range rem {
		r := &rem[i]
		if err := c.netGet(r.Dst, datatype.Byte, len(r.Dst), r.Target, r.Disp); err != nil {
			return err
		}
	}
	return nil
}

// sortMisses orders the batch's misses by (target, disp, size descending,
// submission order): per-target address order is what the merge scan
// needs, and size-descending within a key makes the first instance of a
// duplicated key the one that admits the (largest) entry.
func sortMisses(ms []batchMiss) {
	slices.SortFunc(ms, func(a, b batchMiss) int {
		switch {
		case a.target != b.target:
			return a.target - b.target
		case a.disp != b.disp:
			return a.disp - b.disp
		case a.size != b.size:
			return b.size - a.size
		default:
			return a.op - b.op
		}
	})
}

// stageBuf carves n bytes off the epoch-lifetime staging arena. The
// returned slice stays valid until the pending queue drains (epoch
// closure or invalidation) even if the arena's backing array is replaced
// mid-epoch: the old array remains referenced by the slices cut from it.
// Capacity is kept across epochs, and a replacement at least doubles it,
// so steady-state batches allocate nothing here and a growing epoch
// allocates O(log n) times, never a smaller arena than the one it drops.
func (c *Cache) stageBuf(n int) []byte {
	if len(c.arena)+n > cap(c.arena) {
		c.arena = make([]byte, 0, max(n, 2*cap(c.arena), 64<<10))
	}
	s := c.arena[len(c.arena) : len(c.arena)+n : len(c.arena)+n]
	c.arena = c.arena[:len(c.arena)+n]
	return s
}
