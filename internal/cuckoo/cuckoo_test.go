package cuckoo

import (
	"math/bits"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestNewMinimumSize(t *testing.T) {
	tb := New[int](1, 1)
	if tb.Cap() < 2*NumHashes {
		t.Fatalf("Cap() = %d, want >= %d", tb.Cap(), 2*NumHashes)
	}
}

// TestNewRejectsOversizedTable: the division-free slot reduction is exact
// only below 2^32 slots, so a larger table must not be built.
func TestNewRejectsOversizedTable(t *testing.T) {
	if bits.UintSize < 64 {
		t.Skip("int cannot hold 2^32")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("New with 2^32 slots did not panic")
		}
	}()
	size := 1
	size <<= 32
	New[int](size, 1)
}

// TestSlotReductionExact: slot is ((a·x+b)>>32) % n computed without the
// division — the same slot, so no placement moves.
func TestSlotReductionExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{8, 9, 511, 512, 16384, 1000003} {
		tb := New[struct{}](n, int64(n))
		for j := 0; j < 200000; j++ {
			x := mix(Key{Target: rng.Intn(1 << 10), Disp: int(rng.Int63())})
			switch j { // the folds that drive h to its extremes for b = 0
			case 0:
				x = 0
			case 1:
				x = ^uint64(0)
			}
			for i := 0; i < NumHashes; i++ {
				want := int(((tb.a[i]*x + tb.b[i]) >> 32) % uint64(n))
				if got := tb.slot(i, x); got != want {
					t.Fatalf("n = %d, hash %d, fold %#x: slot %d, want %d", n, i, x, got, want)
				}
			}
		}
	}
}

// checkTags fails unless every non-zero tag is the fingerprint of its
// slot's key and every zero tag sits on a zero slot: the tags are the
// table's only occupancy record, and find trusts them without reading the
// slot.
func checkTags[V comparable](t *testing.T, tb *Table[V]) {
	t.Helper()
	for s, sl := range tb.slots {
		if tb.tags[s] == 0 {
			if sl != (slot[V]{}) {
				t.Fatalf("slot %d: empty tag on a non-zero slot (key %v, value %v)", s, sl.key, sl.val)
			}
			continue
		}
		if want := tagOf(mix(sl.key)); tb.tags[s] != want {
			t.Fatalf("slot %d (key %v): tag %#x, want %#x", s, sl.key, tb.tags[s], want)
		}
	}
}

// TestTagsTrackEverySlotWrite drives every operation that writes a slot
// (placement, displacement, ReplaceAt on used and empty slots, Delete,
// DeleteAt, Clear) on a table small enough to overflow.
func TestTagsTrackEverySlotWrite(t *testing.T) {
	tb := New[int](32, 9)
	tb.SetSearchBudget(8)
	for i := 0; i < 300; i++ {
		k := Key{Target: i % 3, Disp: i * 8}
		if res := tb.Insert(k, i); !res.Placed {
			tb.ReplaceAt(res.CandidateSlots[i%NumHashes], res.HomelessKey, res.HomelessVal)
		}
		switch i % 7 {
		case 2:
			tb.DeleteAt(i % tb.Cap())
		case 4:
			tb.Delete(Key{Target: (i - 3) % 3, Disp: (i - 3) * 8})
		case 6:
			free := Key{Target: 7, Disp: i}
			tb.ReplaceAt(tb.Candidates(free)[0], free, i) // usually an empty slot after the deletes
			tb.Delete(free)
		}
		checkTags(t, tb)
	}
	if tb.Len() == 0 {
		t.Fatalf("table ended empty: the tape checked nothing")
	}
	tb.Clear()
	checkTags(t, tb)
}

func TestInsertLookupDelete(t *testing.T) {
	tb := New[string](64, 7)
	k := Key{Target: 3, Disp: 4096}
	res := tb.Insert(k, "hello")
	if !res.Placed {
		t.Fatalf("insert into empty table failed")
	}
	if res.Moves != 0 {
		t.Fatalf("insert into empty table moved %d elements", res.Moves)
	}
	v, slot, ok := tb.Lookup(k)
	if !ok || v != "hello" {
		t.Fatalf("Lookup = %q,%v", v, ok)
	}
	if gotK, gotV, used := tb.At(slot); !used || gotK != k || gotV != "hello" {
		t.Fatalf("At(%d) = %v,%q,%v", slot, gotK, gotV, used)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if v, ok := tb.Delete(k); !ok || v != "hello" {
		t.Fatalf("Delete = %q,%v", v, ok)
	}
	if _, _, ok := tb.Lookup(k); ok {
		t.Fatalf("Lookup after delete succeeded")
	}
	if _, ok := tb.Delete(k); ok {
		t.Fatalf("double delete succeeded")
	}
}

func TestUpdate(t *testing.T) {
	tb := New[int](64, 7)
	k := Key{1, 100}
	if tb.Update(k, 5) {
		t.Fatalf("Update of absent key succeeded")
	}
	tb.Insert(k, 1)
	if !tb.Update(k, 9) {
		t.Fatalf("Update failed")
	}
	if v, _, _ := tb.Lookup(k); v != 9 {
		t.Fatalf("value after update = %d", v)
	}
}

// TestPtr: Ptr hands out the stored value in place, so a write through it
// is what the next Lookup reads.
func TestPtr(t *testing.T) {
	tb := New[int](64, 7)
	k := Key{1, 100}
	if tb.Ptr(k) != nil {
		t.Fatalf("Ptr of absent key is non-nil")
	}
	tb.Insert(k, 1)
	p := tb.Ptr(k)
	if p == nil || *p != 1 {
		t.Fatalf("Ptr = %v, want the stored 1", p)
	}
	*p = 9
	if v, _, _ := tb.Lookup(k); v != 9 {
		t.Fatalf("value after a write through Ptr = %d", v)
	}
}

func TestDuplicateInsertPanics(t *testing.T) {
	tb := New[int](64, 7)
	tb.Insert(Key{1, 2}, 1)
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate insert did not panic")
		}
	}()
	tb.Insert(Key{1, 2}, 2)
}

func TestHighLoadFactor(t *testing.T) {
	// Fotakis et al. report ~97% utilization with p=4 given long enough
	// insertion searches. With the default search budget, 85% must
	// always succeed; with a generous budget, 95%.
	const n = 1024
	tb := New[int](n, 42)
	inserted := 0
	for i := 0; inserted < n*85/100; i++ {
		k := Key{Target: i % 16, Disp: i * 64}
		res := tb.Insert(k, i)
		if !res.Placed {
			t.Fatalf("insert failed at load factor %.2f with the default search budget", tb.LoadFactor())
		}
		inserted++
	}
	// Everything must still be findable.
	for i := 0; i < inserted; i++ {
		k := Key{Target: i % 16, Disp: i * 64}
		if v, _, ok := tb.Lookup(k); !ok || v != i {
			t.Fatalf("Lookup(%v) = %d,%v", k, v, ok)
		}
	}

	tb2 := New[int](n, 42)
	tb2.SetSearchBudget(1024)
	for i := 0; tb2.Len() < n*95/100; i++ {
		res := tb2.Insert(Key{Target: i % 16, Disp: i * 64}, i)
		if !res.Placed {
			t.Fatalf("insert failed at load factor %.2f with a 1024-slot search budget", tb2.LoadFactor())
		}
	}
	if tb2.Len() < n*95/100 {
		t.Fatalf("Len = %d, want >= %d", tb2.Len(), n*95/100)
	}
}

func TestInsertFailureReportsHomeless(t *testing.T) {
	// Tiny table, forced to overflow: the search must fail, report the
	// new key as homeless with all its candidate slots occupied, and
	// leave the table byte for byte as it was.
	tb := New[int](8, 3)
	tb.SetSearchBudget(8)
	stored := make(map[Key]int)
	for i := 0; ; i++ {
		k := Key{Target: 0, Disp: i * 8}
		slots, tags := slices.Clone(tb.slots), slices.Clone(tb.tags)
		res := tb.Insert(k, i)
		if res.Placed {
			stored[k] = i
			if i > 100 {
				t.Fatalf("table of 8 slots never overflowed")
			}
			continue
		}
		if res.HomelessKey != k || res.HomelessVal != i {
			t.Fatalf("homeless %v=%d, want the inserted %v=%d", res.HomelessKey, res.HomelessVal, k, i)
		}
		if res.Moves != 0 {
			t.Fatalf("failed insert reports %d moves", res.Moves)
		}
		if res.CandidateSlots != tb.Candidates(k) {
			t.Fatalf("candidate slots %v, want %v", res.CandidateSlots, tb.Candidates(k))
		}
		for _, s := range res.CandidateSlots {
			if _, _, used := tb.At(s); !used {
				t.Fatalf("candidate slot %d of homeless element is empty", s)
			}
		}
		if !slices.Equal(slots, tb.slots) || !slices.Equal(tags, tb.tags) {
			t.Fatalf("failed insert changed the table")
		}
		break
	}
	for k, v := range stored {
		if got, _, ok := tb.Lookup(k); !ok || got != v {
			t.Fatalf("stored key %v lost after failed insert", k)
		}
	}
	if tb.Len() != len(stored) {
		t.Fatalf("Len = %d, want %d", tb.Len(), len(stored))
	}
}

// TestInsertMovesAtMostBudget fills tables under several search budgets:
// a successful insert moves at most budget elements, changes at most
// Moves+1 slots, and every key stored before it still looks up. The
// 8-slot tables with a generous budget make the search revisit slots
// often; no path it takes may shift an element along a cycle.
func TestInsertMovesAtMostBudget(t *testing.T) {
	for _, c := range []struct{ slots, budget, tables int }{
		{256, 1, 1}, {256, 4, 1}, {256, 16, 1}, {256, 64, 1}, {256, DefaultSearchBudget, 1},
		{8, 64, 200},
	} {
		for seed := 0; seed < c.tables; seed++ {
			tb := New[int](c.slots, int64(c.budget+seed))
			tb.SetSearchBudget(c.budget)
			stored := make(map[Key]int)
			for i := 0; i < 2*c.slots; i++ {
				k := Key{Target: seed % 5, Disp: i * 16}
				slots := slices.Clone(tb.slots)
				res := tb.Insert(k, i)
				if !res.Placed {
					continue
				}
				if res.Moves > c.budget {
					t.Fatalf("%+v seed %d: insert %d moved %d elements", c, seed, i, res.Moves)
				}
				changed := 0
				for s := range slots {
					if slots[s] != tb.slots[s] {
						changed++
					}
				}
				if changed > res.Moves+1 {
					t.Fatalf("%+v seed %d: insert %d changed %d slots for %d moves", c, seed, i, changed, res.Moves)
				}
				stored[k] = i
				for sk, sv := range stored {
					if got, _, ok := tb.Lookup(sk); !ok || got != sv {
						t.Fatalf("%+v seed %d: %v=%d lost after insert %d (got %d,%v)", c, seed, sk, sv, i, got, ok)
					}
				}
			}
			if tb.Len() != len(stored) {
				t.Fatalf("%+v seed %d: Len = %d, want %d", c, seed, tb.Len(), len(stored))
			}
			checkTags(t, tb)
		}
	}
}

// TestRandomSlotIgnoresInserts: inserts draw nothing from the table's
// RNG, so the eviction sampler's start slots do not depend on how many
// inserts ran in between.
func TestRandomSlotIgnoresInserts(t *testing.T) {
	quiet, busy := New[int](128, 17), New[int](128, 17)
	for i := 0; i < 500; i++ {
		for j := 0; j < 3; j++ {
			k := Key{Target: 3, Disp: (3*i + j) * 8}
			if res := busy.Insert(k, i); !res.Placed {
				busy.ReplaceAt(res.CandidateSlots[j], k, i)
			}
		}
		if q, b := quiet.RandomSlot(), busy.RandomSlot(); q != b {
			t.Fatalf("draw %d: RandomSlot %d with inserts, %d without", i, b, q)
		}
	}
}

func TestReplaceAtResolvesConflict(t *testing.T) {
	tb := New[int](8, 3)
	tb.SetSearchBudget(8)
	var fail InsertResult[int]
	for i := 0; ; i++ {
		res := tb.Insert(Key{0, i * 8}, i)
		if !res.Placed {
			fail = res
			break
		}
	}
	lenBefore := tb.Len()
	victimSlot := fail.CandidateSlots[0]
	evictedK, _ := tb.ReplaceAt(victimSlot, fail.HomelessKey, fail.HomelessVal)
	if tb.Len() != lenBefore {
		t.Fatalf("Len changed on replace: %d -> %d", lenBefore, tb.Len())
	}
	if v, _, ok := tb.Lookup(fail.HomelessKey); !ok || v != fail.HomelessVal {
		t.Fatalf("homeless element not findable after ReplaceAt: %d,%v", v, ok)
	}
	if _, _, ok := tb.Lookup(evictedK); ok {
		t.Fatalf("evicted key still findable")
	}
}

func TestReplaceAtInvalidSlotPanics(t *testing.T) {
	tb := New[int](64, 3)
	k := Key{5, 5}
	cands := tb.Candidates(k)
	// Find a slot that is NOT a candidate.
	bad := -1
	for s := 0; s < tb.Cap(); s++ {
		isCand := false
		for _, c := range cands {
			if c == s {
				isCand = true
			}
		}
		if !isCand {
			bad = s
			break
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("ReplaceAt on non-candidate slot did not panic")
		}
	}()
	tb.ReplaceAt(bad, k, 0)
}

func TestReplaceAtEmptySlot(t *testing.T) {
	tb := New[int](64, 3)
	k := Key{5, 5}
	s := tb.Candidates(k)[0]
	tb.ReplaceAt(s, k, 42)
	if v, _, ok := tb.Lookup(k); !ok || v != 42 {
		t.Fatalf("Lookup after ReplaceAt on empty slot = %d,%v", v, ok)
	}
	if tb.Len() != 1 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestDeleteAt(t *testing.T) {
	tb := New[int](64, 3)
	k := Key{2, 64}
	tb.Insert(k, 7)
	_, slot, _ := tb.Lookup(k)
	gotK, gotV, ok := tb.DeleteAt(slot)
	if !ok || gotK != k || gotV != 7 {
		t.Fatalf("DeleteAt = %v,%d,%v", gotK, gotV, ok)
	}
	if tb.Len() != 0 {
		t.Fatalf("Len = %d", tb.Len())
	}
	if _, _, ok := tb.DeleteAt(slot); ok {
		t.Fatalf("DeleteAt on empty slot succeeded")
	}
	if _, _, ok := tb.DeleteAt(-1); ok {
		t.Fatalf("DeleteAt(-1) succeeded")
	}
	if _, _, ok := tb.DeleteAt(1 << 20); ok {
		t.Fatalf("DeleteAt(huge) succeeded")
	}
}

func TestClear(t *testing.T) {
	tb := New[int](64, 3)
	for i := 0; i < 20; i++ {
		tb.Insert(Key{0, i * 8}, i)
	}
	tb.Clear()
	if tb.Len() != 0 {
		t.Fatalf("Len after Clear = %d", tb.Len())
	}
	if _, _, ok := tb.Lookup(Key{0, 0}); ok {
		t.Fatalf("entry survived Clear")
	}
	// Table is reusable after Clear.
	if res := tb.Insert(Key{0, 0}, 1); !res.Placed {
		t.Fatalf("insert after Clear failed")
	}
}

func TestScanCircular(t *testing.T) {
	tb := New[int](16, 3)
	tb.Insert(Key{0, 0}, 1)
	tb.Insert(Key{0, 8}, 2)

	visited := 0
	tb.Scan(10, func(s int, k Key, v int, used bool) bool {
		visited++
		return true
	})
	if visited != 16 {
		t.Fatalf("full scan visited %d, want 16", visited)
	}

	// Early stop at first used slot.
	var foundVal int
	steps := 0
	tb.Scan(0, func(s int, k Key, v int, used bool) bool {
		steps++
		if used {
			foundVal = v
			return false
		}
		return true
	})
	if foundVal == 0 {
		t.Fatalf("scan never found a used slot")
	}
	if steps > 16 {
		t.Fatalf("scan overran the table: %d steps", steps)
	}

	// Negative and out-of-range starts are normalized.
	visited = 0
	tb.Scan(-5, func(int, Key, int, bool) bool { visited++; return true })
	if visited != 16 {
		t.Fatalf("negative-start scan visited %d", visited)
	}
	visited = 0
	tb.Scan(100, func(int, Key, int, bool) bool { visited++; return true })
	if visited != 16 {
		t.Fatalf("wrapped-start scan visited %d", visited)
	}
}

func TestWalkVisitsAllEntries(t *testing.T) {
	tb := New[int](128, 3)
	want := map[Key]int{}
	for i := 0; i < 50; i++ {
		k := Key{i % 4, i * 16}
		tb.Insert(k, i)
		want[k] = i
	}
	got := map[Key]int{}
	tb.Walk(func(k Key, v int) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Walk visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Walk missed %v", k)
		}
	}
	// Early stop.
	n := 0
	tb.Walk(func(Key, int) bool { n++; return false })
	if n != 1 {
		t.Fatalf("Walk early stop visited %d", n)
	}
	// Walk reads occupancy from the tag bytes: slots emptied by key and
	// by index are skipped, the rest still visited with their values.
	for i := 0; i < 50; i += 2 {
		k := Key{i % 4, i * 16}
		if i%4 == 0 {
			tb.Delete(k)
		} else {
			_, s, _ := tb.Lookup(k)
			tb.DeleteAt(s)
		}
		delete(want, k)
	}
	n = 0
	tb.Walk(func(k Key, v int) bool {
		if w, ok := want[k]; !ok || w != v {
			t.Fatalf("Walk visited %v=%d after deletions, want %d (present %v)", k, v, w, ok)
		}
		n++
		return true
	})
	if n != len(want) || n != tb.Len() {
		t.Fatalf("Walk visited %d entries after deletions, want %d (Len %d)", n, len(want), tb.Len())
	}
	tb.Clear()
	tb.Walk(func(k Key, _ int) bool { t.Fatalf("Walk visited %v in a cleared table", k); return false })
}

func TestCandidatesAreLookupPositions(t *testing.T) {
	// Property: after a successful insert, the stored slot is one of
	// the key's candidates.
	tb := New[int](256, 9)
	f := func(target uint8, disp uint16) bool {
		k := Key{int(target % 8), int(disp)}
		if _, _, ok := tb.Lookup(k); ok {
			return true // already inserted by a previous case
		}
		res := tb.Insert(k, 1)
		if !res.Placed {
			return true // table filled up; nothing to check
		}
		_, slot, ok := tb.Lookup(k)
		if !ok {
			return false
		}
		for _, c := range tb.Candidates(k) {
			if c == slot {
				return true
			}
		}
		return false
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	t1 := New[int](64, 11)
	t2 := New[int](64, 11)
	for i := 0; i < 30; i++ {
		k := Key{0, i * 8}
		r1 := t1.Insert(k, i)
		r2 := t2.Insert(k, i)
		if r1 != r2 {
			t.Fatalf("same-seed tables diverged at insert %d", i)
		}
	}
}

func TestSetSearchBudgetIgnoresInvalid(t *testing.T) {
	tb := New[int](64, 3)
	tb.SetSearchBudget(0)
	tb.SetSearchBudget(-1)
	if tb.budget != DefaultSearchBudget {
		t.Fatalf("budget = %d after invalid SetSearchBudget, want %d", tb.budget, DefaultSearchBudget)
	}
	if res := tb.Insert(Key{0, 0}, 1); !res.Placed {
		t.Fatalf("insert failed after invalid SetSearchBudget")
	}
}

func TestKeyString(t *testing.T) {
	if (Key{2, 512}).String() != "t2+512" {
		t.Fatalf("String = %q", (Key{2, 512}).String())
	}
}

func BenchmarkLookupHit(b *testing.B) {
	tb := New[int](1<<14, 1)
	for i := 0; i < 1<<13; i++ {
		tb.Insert(Key{i % 32, i * 64}, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(Key{i % 32, (i % (1 << 13)) * 64})
	}
}

func BenchmarkInsert(b *testing.B) {
	tb := New[int](1<<20, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if tb.LoadFactor() > 0.5 {
			b.StopTimer()
			tb.Clear()
			b.StartTimer()
		}
		tb.Insert(Key{0, i * 8}, i)
	}
}

// nearFullRef is shaped like the cache's index value: a pointer beside a
// 16-byte hit record, 24 bytes in all.
type nearFullRef struct {
	e    *int
	off  uint32
	hit  int32
	last int64
}

// BenchmarkInsertNearFull times inserts into a 512-slot table held at load
// ≈ 0.97, the state of a churning cache's index, with a value shaped like
// the cache's. Each placed key is paid for by deleting the next stored
// entry after a cursor that sweeps the slots, so the load stays put
// whichever entry a failed insert leaves homeless.
func BenchmarkInsertNearFull(b *testing.B) {
	const slots = 512
	tb := New[nearFullRef](slots, 1)
	next := 0
	fresh := func() Key {
		next++
		return Key{Target: next % 7, Disp: next * 64}
	}
	for tb.LoadFactor() < 0.97 {
		tb.Insert(fresh(), nearFullRef{})
	}
	var held int
	cursor, fails := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !tb.Insert(fresh(), nearFullRef{e: &held, hit: -1, last: int64(i)}).Placed {
			fails++
			continue
		}
		for {
			cursor = (cursor + 1) % slots
			if _, _, ok := tb.DeleteAt(cursor); ok {
				break
			}
		}
	}
	b.ReportMetric(float64(fails)/float64(b.N), "fails/op")
}
