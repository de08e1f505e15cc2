package core

// Op-level micro benchmarks of the caching hot paths, measuring host
// time (ns/op with -benchmem for allocs/op) alongside the modeled
// virtual time reported as the custom vns/op metric. cmd/clampi-perfgate
// runs the BenchmarkOp* set and fails CI when the full-hit path
// allocates or host time regresses past the committed baseline.

import (
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// benchCache runs fn on rank 0 of a 2-rank world with a cache over a
// 1 MiB target region.
func benchCache(b *testing.B, params Params, fn func(c *Cache, win *mpi.Win, clock *simtime.Clock)) {
	b.Helper()
	benchCacheRegion(b, 1<<20, params, fn)
}

// benchCacheRegion is benchCache over a target region of regionBytes.
func benchCacheRegion(b *testing.B, regionBytes int, params Params, fn func(c *Cache, win *mpi.Win, clock *simtime.Clock)) {
	b.Helper()
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, regionBytes)
		if r.ID() == 1 {
			for i := range region {
				region[i] = pattern(i)
			}
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		var fnErr error
		if r.ID() == 0 {
			var c *Cache
			c, fnErr = New(win, params)
			if fnErr == nil {
				fnErr = win.LockAll()
			}
			if fnErr == nil {
				fn(c, win, r.Clock())
				fnErr = win.UnlockAll()
			}
		}
		r.Barrier()
		return fnErr
	})
	if err != nil {
		b.Fatal(err)
	}
}

// BenchmarkOpHitFull measures the steady-state full-hit path: the
// tentpole target is 0 allocs/op.
func BenchmarkOpHitFull(b *testing.B) {
	benchCache(b, alwaysParams(), func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		dst := make([]byte, 256)
		if err := c.Get(dst, datatype.Byte, 256, 1, 128); err != nil {
			b.Error(err)
			return
		}
		if err := win.FlushAll(); err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		v0 := clock.Now()
		for i := 0; i < b.N; i++ {
			if err := c.Get(dst, datatype.Byte, 256, 1, 128); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(clock.Now()-v0)/float64(b.N), "vns/op")
	})
}

// BenchmarkOpBatchHitFull measures one 16-op batch of full hits on 576 B
// payloads per iteration — the shape lcc_replay_sim issues, where the
// scalar benchmark above has one 256 B range hot in L1. It must not
// allocate, and each get costs the lookup plus a 576 B copy: 119 vns.
func BenchmarkOpBatchHitFull(b *testing.B) {
	benchCache(b, alwaysParams(), func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		const width, opBytes = 16, 576
		dst := make([]byte, width*opBytes)
		ops := make([]rma.GetOp, width)
		for j := range ops {
			ops[j] = rma.GetOp{Dst: dst[j*opBytes : (j+1)*opBytes], Target: 1, Disp: j * 1024}
		}
		if err := c.GetBatch(ops); err != nil {
			b.Error(err)
			return
		}
		if err := win.FlushAll(); err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		v0 := clock.Now()
		for i := 0; i < b.N; i++ {
			if err := c.GetBatch(ops); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
		if st := c.Stats(); st.FullHits != int64(b.N*width) {
			b.Errorf("%d full hits in %d gets", st.FullHits, b.N*width)
		}
		b.ReportMetric(float64(clock.Now()-v0)/float64(b.N*width), "vns/op")
	})
}

// BenchmarkOpBatchHitWide is BenchmarkOpBatchHitFull over a working set
// that does not stay in the CPU caches, as lcc_replay_sim's does not: 8192
// entries of 576 B (4.5 MiB of payload behind a 16384-slot index), hit in
// 16-op batches that scatter over all of them. Where the batch above
// re-hits 16 entries in L1, every get here misses the caches on its slot
// and its payload, so the host ns/op shows what a hit touches. Virtual
// time and allocations are those of the batch above: 119 vns per get, 0
// allocs.
func BenchmarkOpBatchHitWide(b *testing.B) {
	const width, opBytes, entries = 16, 576, 8192
	p := alwaysParams()
	p.IndexSlots = 2 * entries
	p.StorageBytes = 2 * entries * opBytes
	benchCacheRegion(b, entries*opBytes, p, func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		dst := make([]byte, width*opBytes)
		// Batch k gets entries (k*width+j)*stride mod entries: an odd
		// stride visits every entry once per entries/width batches.
		const stride = 4099
		batches := make([][]rma.GetOp, entries/width)
		for k := range batches {
			ops := make([]rma.GetOp, width)
			for j := range ops {
				at := (k*width + j) * stride % entries
				ops[j] = rma.GetOp{Dst: dst[j*opBytes : (j+1)*opBytes], Target: 1, Disp: at * opBytes}
			}
			batches[k] = ops
		}
		for _, ops := range batches {
			if err := c.GetBatch(ops); err != nil {
				b.Error(err)
				return
			}
		}
		if err := win.FlushAll(); err != nil {
			b.Error(err)
			return
		}
		if c.CachedEntries() != entries {
			b.Errorf("%d entries cached, want %d", c.CachedEntries(), entries)
			return
		}
		hits0 := c.Stats().FullHits
		b.ReportAllocs()
		b.ResetTimer()
		v0 := clock.Now()
		for i := 0; i < b.N; i++ {
			if err := c.GetBatch(batches[i%len(batches)]); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
		if hits := c.Stats().FullHits - hits0; hits != int64(b.N*width) {
			b.Errorf("%d full hits in %d gets", hits, b.N*width)
		}
		b.ReportMetric(float64(clock.Now()-v0)/float64(b.N*width), "vns/op")
	})
}

// BenchmarkOpHitFullResilient is BenchmarkOpHitFull with the full
// resilience layer compiled in and armed (retry policy, circuit breaker,
// fill verification) but zero faults injected: the fault-free hit path
// must stay 0 allocs/op — resilience is free until something fails.
func BenchmarkOpHitFullResilient(b *testing.B) {
	params := alwaysParams()
	retry := rma.DefaultRetryPolicy()
	brk := DefaultBreakerPolicy()
	params.Retry = &retry
	params.Breaker = &brk
	params.VerifyFills = true
	benchCache(b, params, func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		dst := make([]byte, 256)
		if err := c.Get(dst, datatype.Byte, 256, 1, 128); err != nil {
			b.Error(err)
			return
		}
		if err := win.FlushAll(); err != nil {
			b.Error(err)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		v0 := clock.Now()
		for i := 0; i < b.N; i++ {
			if err := c.Get(dst, datatype.Byte, 256, 1, 128); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(clock.Now()-v0)/float64(b.N), "vns/op")
	})
}

// BenchmarkOpNotifyDrain measures the full-hit path with an active
// notification subscription and an empty queue: the per-access depth
// probe (one nil check plus one atomic load, see openGet) must keep the
// path at 0 allocs/op and must not move the L1 full-hit vns/op —
// targeted coherence is free until a notification actually arrives.
func BenchmarkOpNotifyDrain(b *testing.B) {
	p := alwaysParams()
	p.NotifyTargeted = true
	benchCache(b, p, func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		dst := make([]byte, 256)
		if err := c.Get(dst, datatype.Byte, 256, 1, 128); err != nil {
			b.Error(err)
			return
		}
		if err := win.FlushAll(); err != nil {
			b.Error(err)
			return
		}
		if !c.nsub {
			b.Error("subscription inactive: the probe is not on the path")
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		v0 := clock.Now()
		for i := 0; i < b.N; i++ {
			if err := c.Get(dst, datatype.Byte, 256, 1, 128); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(clock.Now()-v0)/float64(b.N), "vns/op")
	})
}

// BenchmarkOpInvalidateRange16k measures range queries on a cache of
// 16384 entries of 64 B: each iteration drops one entry (k = 1), asks
// again for the hole it left (k = 0) and fetches the entry back, so the
// population holds. Both queries are a seek in the ordered view
// (range.go); walking the index instead would cost 4096 times the slots.
func BenchmarkOpInvalidateRange16k(b *testing.B) {
	const entries, size = 16384, 64
	p := alwaysParams()
	p.IndexSlots = 4 * entries
	p.StorageBytes = 4 * entries * size
	benchCache(b, p, func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		dst := make([]byte, size)
		fetch := func(i int) bool {
			if err := c.Get(dst, datatype.Byte, size, 1, i*size); err != nil {
				b.Error(err)
				return false
			}
			return true
		}
		for i := 0; i < entries; i++ {
			if !fetch(i) {
				return
			}
			if i%256 == 255 {
				if err := win.FlushAll(); err != nil {
					b.Error(err)
					return
				}
			}
		}
		c.InvalidateRange(0, 0, 1) // the first range query builds the view
		if c.CachedEntries() != entries {
			b.Errorf("%d entries cached, want %d", c.CachedEntries(), entries)
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		v0 := clock.Now()
		dropped := 0
		for i := 0; i < b.N; i++ {
			at := i * 7919 % entries
			dropped += c.InvalidateRange(1, at*size+size/4, size/2)
			dropped += c.InvalidateRange(1, at*size+size/4, size/2)
			if !fetch(at) {
				return
			}
			if err := win.FlushAll(); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
		if dropped != b.N || c.CachedEntries() != entries {
			b.Errorf("%d entries dropped in %d iterations, %d cached", dropped, b.N, c.CachedEntries())
		}
		b.ReportMetric(float64(clock.Now()-v0)/float64(b.N), "vns/op")
	})
}

// BenchmarkOpInvalidateSparse measures the blanket invalidation of the
// paper's transparent mode on a sparse index, as a stencil rank runs it:
// each iteration fetches two 512 B halos into a 4096-slot index and
// closes the epoch, which completes both entries and invalidates the
// cache. The model charges the index memset (CostInvalidateBase plus
// 4096 × CostInvalidatePerSlot); the host drains the two occupied slots.
func BenchmarkOpInvalidateSparse(b *testing.B) {
	p := Params{Mode: Transparent, IndexSlots: 4096, StorageBytes: 64 << 10, Seed: 7}
	benchCache(b, p, func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		const row = 512
		dst := make([]byte, 2*row)
		epoch := func() bool {
			for i := 0; i < 2; i++ {
				if err := c.Get(dst[i*row:(i+1)*row], datatype.Byte, row, 1, i*row); err != nil {
					b.Error(err)
					return false
				}
			}
			if err := win.FlushAll(); err != nil {
				b.Error(err)
				return false
			}
			return true
		}
		if !epoch() {
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		v0 := clock.Now()
		for i := 0; i < b.N; i++ {
			if !epoch() {
				return
			}
		}
		b.StopTimer()
		if s := c.Stats(); s.Invalidations != int64(b.N)+1 || s.Hits != 0 {
			b.Errorf("%d invalidations and %d hits in %d iterations", s.Invalidations, s.Hits, b.N+1)
		}
		b.ReportMetric(float64(clock.Now()-v0)/float64(b.N), "vns/op")
	})
}

// BenchmarkOpPutHit measures a write hit: a dense 512 B Put exactly
// covering a cached entry beside a non-overlapping neighbour, written
// through. Each call is a range query over the 2-entry view that finds
// the one entry, the patch copy, and the Put itself; every 32 calls an
// epoch closes.
func BenchmarkOpPutHit(b *testing.B) {
	benchCache(b, alwaysParams(), func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		const row, perEpoch = 512, 32
		src := make([]byte, row)
		for _, disp := range []int{0, row} {
			if err := c.Get(src, datatype.Byte, row, 1, disp); err != nil {
				b.Error(err)
				return
			}
		}
		if err := win.FlushAll(); err != nil {
			b.Error(err)
			return
		}
		epoch := func() bool {
			for j := 0; j < perEpoch; j++ {
				if err := c.Put(src, datatype.Byte, row, 1, 0); err != nil {
					b.Error(err)
					return false
				}
			}
			if err := win.FlushAll(); err != nil {
				b.Error(err)
				return false
			}
			return true
		}
		if !epoch() {
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		v0, hits0 := clock.Now(), c.Stats().WriteHits
		calls := 0
		for ; calls < b.N; calls += perEpoch {
			if !epoch() {
				return
			}
		}
		b.StopTimer()
		if hits := c.Stats().WriteHits - hits0; hits != int64(calls) || c.CachedEntries() != 2 {
			b.Errorf("%d write hits in %d puts, %d entries cached", hits, calls, c.CachedEntries())
		}
		b.ReportMetric(float64(clock.Now()-v0)/float64(calls), "vns/op")
	})
}

// BenchmarkOpPutNotifyUncovered measures a notified write no cached entry
// overlaps, as stencil_sim issues them: the rank publishes 512 B rows of
// its own region while its cache holds two rows of its neighbour, under
// targeted notifications and write-back. Each call is a range query that
// finds nothing and a staged span; every 32 calls an epoch closes and
// flushes them as one run. The payload copy of that one notification is
// mpi's and the only allocation left (1/32 per op).
func BenchmarkOpPutNotifyUncovered(b *testing.B) {
	p := alwaysParams()
	p.NotifyTargeted = true
	p.WriteBack = true
	benchCache(b, p, func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		const row, perEpoch = 512, 32
		dst := make([]byte, row)
		for _, disp := range []int{0, row} {
			if err := c.Get(dst, datatype.Byte, row, 1, disp); err != nil {
				b.Error(err)
				return
			}
		}
		epoch := func() bool {
			for j := 0; j < perEpoch; j++ {
				if err := c.PutNotify(dst, datatype.Byte, row, 0, j*row, 7); err != nil {
					b.Error(err)
					return false
				}
			}
			if err := win.FlushAll(); err != nil {
				b.Error(err)
				return false
			}
			return true
		}
		if !epoch() {
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		v0 := clock.Now()
		calls := 0
		for ; calls < b.N; calls += perEpoch {
			if !epoch() {
				return
			}
		}
		b.StopTimer()
		if st := c.Stats(); st.WriteHits != 0 || c.CachedEntries() != 2 {
			b.Errorf("%d write hits, %d entries cached: the writes were meant to miss both", st.WriteHits, c.CachedEntries())
		}
		b.ReportMetric(float64(clock.Now()-v0)/float64(calls), "vns/op")
	})
}

// BenchmarkOpMissEvict measures the steady-state miss path under
// capacity pressure: every get misses, evicts one entry and inserts a
// pending one (pools keep it at <= 2 allocs/op).
//
// vns/op is the virtual time of the measured gets, whole epochs of 64,
// divided by their count. Only the first two epochs fill the storage; from
// the third on, each epoch's victim scans follow the seeded sampler and
// cost 1.3–2.6 k vns per get, so a mean over 10 epochs (-benchtime 640x)
// strays from the long-run mean by 3 % (one standard deviation) however
// long the warm-up. The figure therefore averages at least
// minVNSEpochs epochs: the epochs past b.N run with the timer stopped, and
// vns/op reads 1636 from 640x to 256000x and beyond.
func BenchmarkOpMissEvict(b *testing.B) {
	const perEpoch, minVNSEpochs = 64, 1024
	p := alwaysParams()
	p.StorageBytes = 8 << 10
	benchCache(b, p, func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		dst := make([]byte, 64)
		round := 0
		epoch := func() bool {
			base := (round % 4) * perEpoch * 64
			round++
			for j := 0; j < perEpoch; j++ {
				if err := c.Get(dst, datatype.Byte, 64, 1, base+j*64); err != nil {
					b.Error(err)
					return false
				}
			}
			if err := win.FlushAll(); err != nil {
				b.Error(err)
				return false
			}
			return true
		}
		for i := 0; i < 8; i++ {
			if !epoch() {
				return
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		v0 := clock.Now()
		calls := 0
		for ; calls < b.N; calls += perEpoch {
			if !epoch() {
				return
			}
		}
		b.StopTimer()
		for ; calls < minVNSEpochs*perEpoch; calls += perEpoch {
			if !epoch() {
				return
			}
		}
		b.ReportMetric(float64(clock.Now()-v0)/float64(calls), "vns/op")
	})
}

// BenchmarkOpBatch16Miss measures a 16-op adjacent-range miss batch per
// iteration (one merged message); BenchmarkOpSeq16Miss is the same
// workload issued as sequential gets. The vns/op ratio between the two
// is the coalescing win asserted by TestBatchMicroBenchSpeedup.
func BenchmarkOpBatch16Miss(b *testing.B) {
	p := alwaysParams()
	p.StorageBytes = 64 << 10
	benchCache(b, p, func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		const width, opBytes = 16, 64
		dst := make([]byte, width*opBytes)
		ops := make([]rma.GetOp, width)
		round := 0
		b.ReportAllocs()
		b.ResetTimer()
		v0 := clock.Now()
		for i := 0; i < b.N; i++ {
			base := (round * width * opBytes) % (1 << 20)
			round++
			for j := 0; j < width; j++ {
				lo := j * opBytes
				ops[j] = rma.GetOp{Dst: dst[lo : lo+opBytes], Target: 1, Disp: base + lo}
			}
			if err := c.GetBatch(ops); err != nil {
				b.Error(err)
				return
			}
			if err := win.FlushAll(); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(clock.Now()-v0)/float64(b.N*width), "vns/op")
	})
}

func BenchmarkOpSeq16Miss(b *testing.B) {
	p := alwaysParams()
	p.StorageBytes = 64 << 10
	benchCache(b, p, func(c *Cache, win *mpi.Win, clock *simtime.Clock) {
		const width, opBytes = 16, 64
		dst := make([]byte, width*opBytes)
		round := 0
		b.ReportAllocs()
		b.ResetTimer()
		v0 := clock.Now()
		for i := 0; i < b.N; i++ {
			base := (round * width * opBytes) % (1 << 20)
			round++
			for j := 0; j < width; j++ {
				lo := j * opBytes
				if err := c.Get(dst[lo:lo+opBytes], datatype.Byte, opBytes, 1, base+lo); err != nil {
					b.Error(err)
					return
				}
			}
			if err := win.FlushAll(); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(clock.Now()-v0)/float64(b.N*width), "vns/op")
	})
}
