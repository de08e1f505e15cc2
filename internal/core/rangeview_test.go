package core

// Tests of the ordered (target, disp) view behind cohere and
// InvalidateRange (range.go): a differential test against the whole-index
// walk the view replaced, kept here as the reference, and one test per
// place the view is maintained.

import (
	"bytes"
	"math/rand"
	"testing"

	"clampi/internal/cuckoo"
	"clampi/internal/datatype"
	"clampi/internal/mpi"
	"clampi/internal/notify"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// bruteOverlap is the reference: every indexed entry of target that
// overlaps [disp, disp+size), found by walking all slots.
func bruteOverlap(c *Cache, target, disp, size int) map[cuckoo.Key]*entry {
	out := map[cuckoo.Key]*entry{}
	c.idx.Walk(func(k cuckoo.Key, r ref) bool {
		if k.Target == target && k.Disp < disp+size && disp < k.Disp+r.e.payload {
			out[k] = r.e
		}
		return true
	})
	return out
}

func indexedEntries(c *Cache) map[cuckoo.Key]*entry {
	out := map[cuckoo.Key]*entry{}
	c.idx.Walk(func(k cuckoo.Key, r ref) bool {
		out[k] = r.e
		return true
	})
	return out
}

// rvOp is one step of a range-view script.
type rvOp struct {
	kind   int
	target int
	disp   int
	size   int
	arg    byte
}

const (
	rvGet = iota
	rvGetBatch
	rvPut
	rvPutNotify
	rvFlush
	rvInvalidateRange
	rvRemoteWrite
	rvInvalidate
)

const (
	rvRegion = 4096
	rvMaxOps = 256
)

// decodeRangeScript turns raw bytes into a script: byte 0 picks the cache
// configuration, every following group of four one operation. 256 start
// displacements 16 B apart with sizes of 8 to 320 B make entries overlap
// each other, repeat keys with growing sizes (partial-hit extensions) and
// fill a 64-slot index.
func decodeRangeScript(data []byte) (cfg byte, ops []rvOp) {
	if len(data) == 0 {
		return 0, nil
	}
	cfg = data[0]
	for i := 1; i+3 < len(data) && len(ops) < rvMaxOps; i += 4 {
		k, a, b, s := data[i], data[i+1], data[i+2], data[i+3]
		op := rvOp{target: 1, disp: int(a%64)*64 + int(b&3)*16, size: 8 + int(s%40)*8, arg: b}
		if b&0xC0 == 0xC0 {
			op.target = 0
		}
		if op.disp+op.size > rvRegion {
			op.size = rvRegion - op.disp
		}
		switch k % 16 {
		case 0, 1, 2, 3, 4, 9:
			op.kind = rvGet
		case 5, 6:
			op.kind = rvGetBatch
		case 7:
			op.kind = rvPut
		case 8:
			op.kind = rvPutNotify
		case 10:
			op.kind = rvFlush
			if b%3 != 0 { // long epochs: a full index of PENDING entries
				op.kind = rvGet
			}
		case 11, 12, 13:
			op.kind = rvInvalidateRange
		case 14:
			op.kind = rvRemoteWrite
			op.target = 1
		default:
			op.kind = rvInvalidate
			if b%4 != 0 {
				op.kind = rvFlush
			}
		}
		if written := op.kind == rvPut || op.kind == rvPutNotify || op.kind == rvInvalidateRange ||
			op.kind == rvRemoteWrite; written && b&0x20 != 0 {
			// Half of the writes and range queries are byte-granular, so
			// they meet the 8 B-aligned entries at their first and last
			// bytes and one byte outside them.
			op.disp += int(b >> 2 & 7)
			op.size = max(1, min(op.size-int(s&7), rvRegion-op.disp))
		}
		ops = append(ops, op)
	}
	return cfg, ops
}

// rvCoverage counts the events a corpus must have produced for the
// differential test to have tested what it claims.
type rvCoverage struct {
	queries, victims   int
	pendingWaiters     int // PENDING victims that had same-epoch waiters
	extensions         int // partial hits that grew an entry in place
	conflicts          int
	capacity           int
	indexResizes       int
	patchedWrites      int // writes and notifications that patched an entry
	multiPatches       int // ... that patched more than one
	mixedWrites        int // local writes that patched one entry and dropped another
	notifyInvalidation int
}

// runRangeScript drives one script through a 2-rank world — rank 0 owns
// the cache, rank 1 is the remote writer of rvRemoteWrite — and checks
// every range query against bruteOverlap.
func runRangeScript(t *testing.T, data []byte, cov *rvCoverage) {
	cfg, ops := decodeRangeScript(data)
	if len(ops) == 0 {
		return
	}
	p := Params{Mode: AlwaysCache, IndexSlots: 64, StorageBytes: 32 << 10,
		TuneInterval: 48, NotifyTargeted: true, Seed: int64(cfg)}
	p.WriteBack = cfg&1 != 0
	p.Adaptive = cfg&2 != 0
	if cfg&4 != 0 {
		p.StorageBytes = 4 << 10
	}
	err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, rvRegion)
		for i := range region {
			region[i] = pattern(i + r.ID())
		}
		win := r.WinCreate(region, nil)
		defer win.Free()
		var c *Cache
		if r.ID() == 0 {
			var err error
			if c, err = New(win, p); err != nil {
				return err
			}
		}
		r.Barrier() // rank 0 is subscribed before rank 1 can notify
		err := win.LockAll()
		for i := 0; i < len(ops) && err == nil; i++ {
			op := ops[i]
			if r.ID() == 0 {
				err = rvStep(t, c, win, op, cov)
			} else if op.kind == rvRemoteWrite {
				if err = win.PutNotify(fill(op.size, op.arg), datatype.Byte, op.size, 1, op.disp, uint32(i)); err == nil {
					err = win.FlushAll()
				}
			}
			if op.kind == rvRemoteWrite {
				r.Barrier() // orders the write's notification before rank 0's drain
				if r.ID() == 0 && err == nil {
					rvDrain(t, c, op, cov)
				}
			}
		}
		if uerr := win.UnlockAll(); err == nil {
			err = uerr
		}
		r.Barrier()
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// rvExpectWrite is what cohere must do with a dense write, found by the
// slot walk: when the bytes are at hand, patch every CACHED entry lying
// inside the span; drop every other overlapping entry.
func rvExpectWrite(c *Cache, op rvOp, carries bool) (victims map[cuckoo.Key]*entry, patched []*entry) {
	victims = bruteOverlap(c, op.target, op.disp, op.size)
	for k, e := range victims {
		if carries && e.state == stateCached && op.disp <= k.Disp && k.Disp+e.payload <= op.disp+op.size {
			delete(victims, k)
			patched = append(patched, e)
		}
	}
	return victims, patched
}

// rvCheckPatched requires every entry the write was to patch to hold the
// written bytes (fill(op.size, op.arg)), and the write to have counted
// once as a patch (hits) exactly when it patched anything.
func rvCheckPatched(t *testing.T, c *Cache, op rvOp, patched []*entry, hits int64, cov *rvCoverage) {
	t.Helper()
	for _, e := range patched {
		if e.state != stateCached || !bytes.Equal(c.store.Bytes(e.region, e.payload), fill(e.payload, op.arg)) {
			t.Errorf("op %+v: entry %v inside the span was not patched", op, e.key)
		}
	}
	if want := min(int64(len(patched)), 1); hits != want {
		t.Errorf("op %+v: counted %d patches for %d patched entries", op, hits, len(patched))
	}
	if len(patched) > 0 {
		cov.patchedWrites++
	}
	if len(patched) > 1 {
		cov.multiPatches++
	}
}

// rvCheckIndex compares the index with before minus victims, record by
// record, and the cache's cross-structure invariants.
func rvCheckIndex(t *testing.T, c *Cache, op rvOp, before, victims map[cuckoo.Key]*entry) {
	t.Helper()
	after := indexedEntries(c)
	for k, e := range before {
		_, victim := victims[k]
		switch got, ok := after[k]; {
		case victim && ok:
			t.Errorf("op %+v: overlapping entry %v survived", op, k)
		case victim && e.state != stateEvicted:
			t.Errorf("op %+v: victim %v left in state %d", op, k, e.state)
		case !victim && (!ok || got != e):
			t.Errorf("op %+v: entry %v outside the range was dropped", op, k)
		}
	}
	if len(after) != len(before)-len(victims) {
		t.Errorf("op %+v: %d entries indexed, want %d", op, len(after), len(before)-len(victims))
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Errorf("op %+v: %v", op, err)
	}
}

func rvStep(t *testing.T, c *Cache, win *mpi.Win, op rvOp, cov *rvCoverage) error {
	hadView := c.view != nil
	before := indexedEntries(c)
	pendingBefore := map[*entry]bool{}
	for _, e := range before {
		if e.state == statePending {
			pendingBefore[e] = true
		}
	}
	s0 := c.Stats()
	slots0 := c.IndexSlots()
	var err error
	rangeQuery := false
	switch op.kind {
	case rvGet:
		err = c.Get(make([]byte, op.size), datatype.Byte, op.size, op.target, op.disp)
	case rvGetBatch:
		// Three ranges a third of the size apart: neighbours that merge
		// into one message and overlap each other as entries.
		var batch []rma.GetOp
		for j := 0; j < 3; j++ {
			d := op.disp + j*op.size/3
			batch = append(batch, rma.GetOp{Dst: make([]byte, min(op.size, rvRegion-d)), Target: op.target, Disp: d})
		}
		err = c.GetBatch(batch)
	case rvFlush:
		if c.view != nil {
			for _, e := range before {
				if e.extTo > e.payload {
					cov.extensions++ // CheckIntegrity below holds maxPayload to it
				}
			}
		}
		err = win.FlushAll()
	case rvInvalidate:
		c.Invalidate()
		if c.CachedEntries() != 0 || (c.view != nil && (c.view.tree.Len() != 0 || c.view.maxPayload != 0)) {
			t.Errorf("Invalidate left %d entries, view %+v", c.CachedEntries(), c.view)
		}
	case rvPut, rvPutNotify:
		victims, patched := rvExpectWrite(c, op, true)
		if op.kind == rvPut {
			err = c.Put(fill(op.size, op.arg), datatype.Byte, op.size, op.target, op.disp)
		} else {
			err = c.PutNotify(fill(op.size, op.arg), datatype.Byte, op.size, op.target, op.disp, 7)
		}
		rangeQuery = true
		cov.queries++
		cov.victims += len(victims)
		if len(patched) > 0 && len(victims) > 0 {
			cov.mixedWrites++
		}
		rvCheckIndex(t, c, op, before, victims)
		rvCheckPatched(t, c, op, patched, c.Stats().WriteHits-s0.WriteHits, cov)
	case rvInvalidateRange:
		victims := bruteOverlap(c, op.target, op.disp, op.size)
		type owed struct{ dst, want []byte }
		var waiters []owed
		for _, e := range victims {
			if e.state == statePending && len(e.waiters) > 0 {
				cov.pendingWaiters++
				for _, w := range e.waiters {
					waiters = append(waiters, owed{w.dst, bytes.Clone(e.src[:w.size])})
				}
			}
		}
		if n := c.InvalidateRange(op.target, op.disp, op.size); n != len(victims) {
			t.Errorf("InvalidateRange(%d, %d, %d) = %d, the slot walk finds %d", op.target, op.disp, op.size, n, len(victims))
		}
		for _, w := range waiters {
			if !bytes.Equal(w.dst, w.want) {
				t.Errorf("op %+v: a waiter of a PENDING victim was not served", op)
			}
		}
		rangeQuery = true
		cov.queries++
		cov.victims += len(victims)
		rvCheckIndex(t, c, op, before, victims)
		if len(c.victims) != 0 {
			t.Errorf("victim scratch not cleared: %d left", len(c.victims))
		}
	}
	if !hadView && !rangeQuery && c.view != nil {
		t.Errorf("op %+v built the view without a range query", op)
	}
	if rangeQuery && c.view == nil {
		t.Errorf("op %+v: range query answered without the view", op)
	}
	switch op.kind {
	case rvGet, rvGetBatch:
		// Only CACHED entries are ever chosen as eviction victims, and
		// a failed Cuckoo insert leaves only the new key homeless, so
		// an indexed PENDING entry stays indexed.
		after := indexedEntries(c)
		for k, e := range before {
			if pendingBefore[e] && after[k] != e {
				t.Errorf("op %+v: PENDING entry %v left the index", op, k)
			}
		}
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Errorf("op %+v: %v", op, err)
	}
	d := c.Stats().Sub(s0)
	cov.conflicts += int(d.Conflicting)
	cov.capacity += int(d.Capacity)
	if c.IndexSlots() != slots0 {
		cov.indexResizes++
	}
	return err
}

// rvDrain applies rank 1's notified write to the cache and checks it as
// rvStep checks a local write.
func rvDrain(t *testing.T, c *Cache, op rvOp, cov *rvCoverage) {
	before := indexedEntries(c)
	s0 := c.Stats()
	victims, patched := rvExpectWrite(c, op, op.size <= notify.DataMax)
	if c.nw.NotifyDepth() != 1 {
		t.Errorf("op %+v: %d notifications queued, want 1", op, c.nw.NotifyDepth())
	}
	c.drainNotifications()
	cov.queries++
	cov.victims += len(victims)
	if len(patched) == 0 {
		cov.notifyInvalidation++
	}
	if c.view == nil {
		t.Errorf("op %+v: notification applied without the view", op)
	}
	rvCheckIndex(t, c, op, before, victims)
	rvCheckPatched(t, c, op, patched, c.Stats().NotifyPatches-s0.NotifyPatches, cov)
}

// rvScripts is the seed corpus shared by the test and the fuzz target.
func rvScripts() [][]byte {
	scripts := [][]byte{
		// Same key read twice in one epoch (a waiter on a PENDING entry),
		// invalidated before the flush; then the view is in use: refill,
		// extend in place, invalidate by the extension's bytes only.
		{0, 0, 1, 0, 7, 0, 1, 0, 7, 11, 1, 0, 0, 10, 0, 0, 0, 0, 1, 0, 7, 10, 0, 0, 0, 0, 1, 0, 30, 10, 0, 0, 0, 11, 2, 1, 0},
		// Overlapping neighbours, a remote write into the middle, an
		// explicit blanket invalidation, and a refill under the view.
		{3, 0, 2, 0, 20, 0, 2, 1, 20, 0, 2, 2, 20, 10, 0, 0, 0, 14, 2, 1, 3, 15, 0, 0, 0, 0, 2, 0, 20, 10, 0, 0, 0, 12, 2, 1, 1},
	}
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := make([]byte, 1+4*200)
		rng.Read(s)
		scripts = append(scripts, s)
	}
	return scripts
}

// TestRangeViewDifferential runs the seed corpus plus 300 generated
// scripts (under a second in all) and requires that together they reached every way an
// entry enters and leaves the view.
func TestRangeViewDifferential(t *testing.T) {
	var cov rvCoverage
	for _, s := range rvScripts() {
		runRangeScript(t, s, &cov)
	}
	for seed := int64(100); seed < 400; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := make([]byte, 1+4*rvMaxOps)
		rng.Read(s)
		runRangeScript(t, s, &cov)
		if t.Failed() {
			t.Fatalf("seed %d", seed)
		}
	}
	t.Logf("%+v", cov)
	for name, n := range map[string]int{
		"range queries": cov.queries, "victims": cov.victims, "PENDING victims with waiters": cov.pendingWaiters,
		"in-place extensions": cov.extensions, "conflicting accesses": cov.conflicts,
		"capacity evictions": cov.capacity, "index resizes": cov.indexResizes, "patched writes": cov.patchedWrites,
		"writes patching several entries": cov.multiPatches, "writes both patching and dropping": cov.mixedWrites,
		"notification invalidations": cov.notifyInvalidation,
	} {
		if n == 0 {
			t.Errorf("the corpus produced no %s", name)
		}
	}
}

// FuzzRangeView is the same differential check over fuzzed scripts.
func FuzzRangeView(f *testing.F) {
	for _, s := range rvScripts() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var cov rvCoverage
		runRangeScript(t, data, &cov)
	})
}

// fetch caches [disp, disp+size) of target 1 and closes the epoch.
func fetch(t *testing.T, c *Cache, win *mpi.Win, disp, size int) {
	t.Helper()
	if err := c.Get(make([]byte, size), datatype.Byte, size, 1, disp); err != nil {
		t.Error(err)
	}
	if err := win.FlushAll(); err != nil {
		t.Error(err)
	}
}

// viewHolds requires the view to exist and (through CheckIntegrity) to
// hold exactly the index's entries.
func viewHolds(t *testing.T, c *Cache) {
	t.Helper()
	if c.view == nil {
		t.Error("no view")
		return
	}
	if err := c.CheckIntegrity(); err != nil {
		t.Error(err)
	}
}

// TestViewBuiltByFirstRangeQuery: reads, evictions and invalidations
// leave a cache without a view; the first range query — even one that
// finds nothing — builds it from what is indexed.
func TestViewBuiltByFirstRangeQuery(t *testing.T) {
	p := alwaysParams()
	p.StorageBytes = 4 << 10
	withCache(t, 1<<16, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		for i := 0; i < 64; i++ {
			fetch(t, c, win, i*256, 64+i%3*64)
		}
		c.Invalidate()
		for i := 0; i < 64; i++ {
			fetch(t, c, win, i*256, 64+i%3*64)
		}
		if c.Stats().Capacity == 0 {
			t.Error("no capacity eviction happened")
		}
		if c.view != nil {
			t.Error("a cache that received no range query has a view")
			return nil
		}
		if n := c.InvalidateRange(0, 0, 1<<16); n != 0 {
			t.Errorf("dropped %d entries of a target that has none", n)
		}
		viewHolds(t, c)
		if c.view.tree.Len() != c.CachedEntries() || c.view.maxPayload != 192 {
			t.Errorf("view of %d entries, maxPayload %d; index holds %d, longest 192",
				c.view.tree.Len(), c.view.maxPayload, c.CachedEntries())
		}
		return nil
	})
}

// TestViewFollowsEvictions: with the view in place, entries admitted by
// misses join it and the victims of capacity and conflict evictions
// leave it.
func TestViewFollowsEvictions(t *testing.T) {
	for name, p := range map[string]Params{
		"capacity": {Mode: AlwaysCache, StorageBytes: 4 << 10},
		"conflict": {Mode: AlwaysCache, IndexSlots: 8, StorageBytes: 1 << 20},
	} {
		withCache(t, 1<<16, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
			c.InvalidateRange(1, 0, 1)
			for i := 0; i < 128; i++ {
				fetch(t, c, win, i*128, 128)
				viewHolds(t, c)
			}
			s := c.Stats()
			if name == "capacity" && s.Capacity == 0 || name == "conflict" && s.Conflicting == 0 {
				t.Errorf("%s: no such eviction happened: %+v", name, s)
			}
			before := c.CachedEntries()
			if n := c.InvalidateRange(1, 0, 1<<16); n != before || c.CachedEntries() != 0 || c.view.tree.Len() != 0 {
				t.Errorf("%s: whole-window query dropped %d of %d, %d still indexed, %d in the view",
					name, n, before, c.CachedEntries(), c.view.tree.Len())
			}
			return nil
		})
	}
}

// TestViewRemoveComparesRecords: retiring a record that is not the one
// the view holds under its key — a recycled record, or one that never
// found a slot — leaves the live entry in the view.
func TestViewRemoveComparesRecords(t *testing.T) {
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		fetch(t, c, win, 256, 64)
		c.InvalidateRange(1, 0, 1)
		live, _, _ := c.idx.Lookup(cuckoo.Key{Target: 1, Disp: 256})
		c.retire(&entry{key: live.e.key, state: stateEvicted})
		viewHolds(t, c)
		if n := c.InvalidateRange(1, 300, 1); n != 1 {
			t.Errorf("the live entry left the view with a stranger's record: dropped %d", n)
		}
		return nil
	})
}

// TestViewSurvivesInvalidateAndResize: a blanket invalidation and an
// adaptive index resize empty the view without discarding it, and it
// keeps following the index afterwards.
func TestViewSurvivesInvalidateAndResize(t *testing.T) {
	p := alwaysParams()
	p.IndexSlots = 64
	withCache(t, 1<<16, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		refill := func() {
			for i := 0; i < 32; i++ {
				fetch(t, c, win, i*512, 64+i*8)
			}
		}
		refill()
		c.InvalidateRange(1, 1<<15, 1)
		view := c.view
		for _, step := range []struct {
			name string
			do   func()
		}{
			{"Invalidate", c.Invalidate},
			{"resizeIndex", func() {
				if !c.resizeIndex(2) {
					t.Error("index not resized")
				}
				c.Invalidate() // as tune() does
			}},
		} {
			step.do()
			if c.view != view || c.view.tree.Len() != 0 || c.view.maxPayload != 0 {
				t.Errorf("%s: view %p (was %p) holds %d entries, maxPayload %d", step.name, c.view, view, c.view.tree.Len(), c.view.maxPayload)
			}
			if len(c.free) < 32 || c.store.Entries() != 0 {
				t.Errorf("%s: %d records recycled of 32, %d regions still allocated", step.name, len(c.free), c.store.Entries())
			}
			refill()
			viewHolds(t, c)
			if c.view.tree.Len() != 32 {
				t.Errorf("%s: view holds %d of 32 refilled entries", step.name, c.view.tree.Len())
			}
		}
		return nil
	})
}

// TestViewMaxPayloadFollowsExtension: a partial hit grows an entry in
// place at the epoch closure; a range query that touches only the grown
// part must still find the entry.
func TestViewMaxPayloadFollowsExtension(t *testing.T) {
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		fetch(t, c, win, 0, 64)
		c.InvalidateRange(1, 2048, 1)
		if c.view.maxPayload != 64 {
			t.Errorf("maxPayload %d, want 64", c.view.maxPayload)
			return nil
		}
		fetch(t, c, win, 0, 256)
		if s := c.Stats(); s.PartialHits != 1 || c.CachedEntries() != 1 {
			t.Errorf("the second get did not extend the entry: %+v", s)
			return nil
		}
		viewHolds(t, c)
		if n := c.InvalidateRange(1, 255, 1); n != 1 {
			t.Errorf("a query of the extension's last byte dropped %d entries, maxPayload %d", n, c.view.maxPayload)
		}
		return nil
	})
}

// TestInvalidateRangeAllocFree: a range query allocates nothing, whether
// it finds nothing or finds — and drops — an entry that is then fetched
// again.
func TestInvalidateRangeAllocFree(t *testing.T) {
	p := alwaysParams()
	p.IndexSlots = 1024
	withCache(t, 1<<16, p, func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		for i := 0; i < 512; i++ {
			fetch(t, c, win, i*128, 64)
		}
		dst := make([]byte, 64)
		dropped := 0
		none := testing.AllocsPerRun(200, func() { dropped += c.InvalidateRange(1, 64, 64) })
		if none != 0 || dropped != 0 {
			t.Errorf("a query between entries: %.1f allocs/op, %d dropped", none, dropped)
		}
		some := testing.AllocsPerRun(200, func() {
			dropped += c.InvalidateRange(1, 128*100+63, 8)
			if err := c.Get(dst, datatype.Byte, 64, 1, 128*100); err != nil {
				t.Error(err)
			}
			if err := win.FlushAll(); err != nil {
				t.Error(err)
			}
		})
		if some != 0 || dropped != 201 {
			t.Errorf("a query that drops an entry: %.1f allocs/op, %d dropped of 201", some, dropped)
		}
		return c.CheckIntegrity()
	})
}

// TestInvalidateEmptyCache: invalidating a cache that indexes, queues and
// stores nothing is charged like any other invalidation and leaves the
// cache usable.
func TestInvalidateEmptyCache(t *testing.T) {
	withCache(t, 4096, alwaysParams(), func(c *Cache, win *mpi.Win, r *mpi.Rank) error {
		clock := r.Clock()
		fetch(t, c, win, 0, 64)
		v0 := clock.Now()
		c.Invalidate()
		full := clock.Now() - v0
		v0 = clock.Now()
		c.Invalidate()
		if empty := clock.Now() - v0; empty != full || full != CostInvalidateBase+simtime.Duration(c.IndexSlots())*CostInvalidatePerSlot {
			t.Errorf("an empty invalidation charged %v, a populated one %v", empty, full)
		}
		if c.Stats().Invalidations != 2 {
			t.Errorf("Invalidations = %d, want 2", c.Stats().Invalidations)
		}
		fetch(t, c, win, 0, 64)
		fetch(t, c, win, 0, 64)
		if c.Stats().Hits != 1 {
			t.Errorf("no hit after an empty invalidation: %+v", c.Stats())
		}
		return c.CheckIntegrity()
	})
}
