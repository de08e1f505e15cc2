package avl

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	var tr Tree[int]
	if tr.Len() != 0 || tr.Height() != 0 {
		t.Fatalf("empty tree: len=%d height=%d", tr.Len(), tr.Height())
	}
	if _, ok := tr.Get(Key{1, 0}); ok {
		t.Fatalf("Get on empty tree returned ok")
	}
	if _, _, ok := tr.Ceiling(0); ok {
		t.Fatalf("Ceiling on empty tree returned ok")
	}
	if _, _, ok := tr.Min(); ok {
		t.Fatalf("Min on empty tree returned ok")
	}
	if _, _, ok := tr.Max(); ok {
		t.Fatalf("Max on empty tree returned ok")
	}
	if tr.Delete(Key{1, 0}) {
		t.Fatalf("Delete on empty tree returned true")
	}
}

func TestInsertGetDelete(t *testing.T) {
	var tr Tree[string]
	if !tr.Insert(Key{100, 0}, "a") {
		t.Fatalf("first insert not created")
	}
	if tr.Insert(Key{100, 0}, "b") {
		t.Fatalf("replacing insert reported created")
	}
	if v, ok := tr.Get(Key{100, 0}); !ok || v != "b" {
		t.Fatalf("Get = %q,%v after replace", v, ok)
	}
	if tr.Len() != 1 {
		t.Fatalf("Len = %d, want 1", tr.Len())
	}
	if !tr.Delete(Key{100, 0}) {
		t.Fatalf("Delete failed")
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after delete", tr.Len())
	}
}

func TestSameSizeDifferentOffsets(t *testing.T) {
	// Equal-size free regions must coexist (offset disambiguates).
	var tr Tree[int]
	for off := 0; off < 10; off++ {
		tr.Insert(Key{64, off * 64}, off)
	}
	if tr.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tr.Len())
	}
	for off := 0; off < 10; off++ {
		if v, ok := tr.Get(Key{64, off * 64}); !ok || v != off {
			t.Fatalf("Get(64@%d) = %d,%v", off*64, v, ok)
		}
	}
}

func TestCeilingBestFit(t *testing.T) {
	var tr Tree[int]
	sizes := []int{32, 64, 128, 512, 4096}
	for i, s := range sizes {
		tr.Insert(Key{s, i}, s)
	}
	cases := []struct {
		req  int
		want int
		ok   bool
	}{
		{1, 32, true},
		{32, 32, true},
		{33, 64, true},
		{65, 128, true},
		{129, 512, true},
		{513, 4096, true},
		{4096, 4096, true},
		{4097, 0, false},
	}
	for _, c := range cases {
		k, _, ok := tr.Ceiling(c.req)
		if ok != c.ok {
			t.Fatalf("Ceiling(%d) ok=%v, want %v", c.req, ok, c.ok)
		}
		if ok && k.Size != c.want {
			t.Fatalf("Ceiling(%d) = %d, want %d", c.req, k.Size, c.want)
		}
	}
}

func TestCeilingPrefersLowestOffsetAmongEqualSizes(t *testing.T) {
	var tr Tree[int]
	tr.Insert(Key{64, 300}, 0)
	tr.Insert(Key{64, 100}, 1)
	tr.Insert(Key{64, 200}, 2)
	k, _, ok := tr.Ceiling(64)
	if !ok || k.Off != 100 {
		t.Fatalf("Ceiling(64) = %v, want offset 100", k)
	}
}

func TestMinMaxWalk(t *testing.T) {
	var tr Tree[int]
	perm := rand.New(rand.NewSource(42)).Perm(100)
	for _, p := range perm {
		tr.Insert(Key{p, 0}, p)
	}
	if k, _, _ := tr.Min(); k.Size != 0 {
		t.Fatalf("Min = %v", k)
	}
	if k, _, _ := tr.Max(); k.Size != 99 {
		t.Fatalf("Max = %v", k)
	}
	var got []int
	tr.Walk(func(k Key, v int) bool {
		got = append(got, k.Size)
		return true
	})
	if !sort.IntsAreSorted(got) || len(got) != 100 {
		t.Fatalf("Walk not sorted or wrong count: %d", len(got))
	}
	// Early stop.
	var count int
	tr.Walk(func(Key, int) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestBalanceUnderSequentialInsert(t *testing.T) {
	// Sequential inserts are the classic AVL worst case; height must
	// stay logarithmic.
	var tr Tree[int]
	const n = 1 << 12
	for i := 0; i < n; i++ {
		tr.Insert(Key{i, 0}, i)
		if i%512 == 0 {
			if err := tr.checkInvariants(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if tr.Height() > 18 { // 1.44*log2(4096) ~ 17.3
		t.Fatalf("height %d too large for %d nodes", tr.Height(), n)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomOperationsInvariant(t *testing.T) {
	// Property test: after arbitrary insert/delete sequences the AVL
	// invariants hold and contents match a reference map.
	f := func(ops []uint16) bool {
		var tr Tree[int]
		ref := make(map[Key]int)
		for i, op := range ops {
			k := Key{Size: int(op % 64), Off: int(op/64) % 16}
			if op%3 == 0 {
				tr.Delete(k)
				delete(ref, k)
			} else {
				tr.Insert(k, i)
				ref[k] = i
			}
		}
		if tr.Len() != len(ref) {
			return false
		}
		if err := tr.checkInvariants(); err != nil {
			return false
		}
		for k, v := range ref {
			got, ok := tr.Get(k)
			if !ok || got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeleteInternalNodes(t *testing.T) {
	var tr Tree[int]
	for i := 0; i < 64; i++ {
		tr.Insert(Key{i, 0}, i)
	}
	// Delete in an order that exercises two-child removals.
	for _, i := range []int{31, 15, 47, 7, 23, 39, 55} {
		if !tr.Delete(Key{i, 0}) {
			t.Fatalf("Delete(%d) failed", i)
		}
		if err := tr.checkInvariants(); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != 57 {
		t.Fatalf("Len = %d, want 57", tr.Len())
	}
	if tr.Delete(Key{31, 0}) {
		t.Fatalf("double delete succeeded")
	}
}

func TestKeyLessAndString(t *testing.T) {
	if !(Key{1, 0}).Less(Key{2, 0}) {
		t.Fatalf("size ordering broken")
	}
	if !(Key{1, 0}).Less(Key{1, 5}) {
		t.Fatalf("offset tiebreak broken")
	}
	if (Key{1, 5}).Less(Key{1, 5}) {
		t.Fatalf("Less not strict")
	}
	if (Key{3, 7}).String() != "(3@7)" {
		t.Fatalf("String = %q", (Key{3, 7}).String())
	}
}

// TestNodeRecycling checks the tree's node allocator: nodes come from the
// heap a chunk at a time, deleted and cleared nodes are reused before a
// new one is carved, and a steady-state insert/delete cycle allocates
// nothing (what storage.Manager's alloc/free cycle relies on).
func TestNodeRecycling(t *testing.T) {
	fill := func(tr *Tree[int]) {
		for i := 0; i < 100; i++ {
			tr.Insert(Key{Size: i % 25, Off: i}, i)
		}
	}
	if got, want := testing.AllocsPerRun(10, func() { fill(new(Tree[int])) }), float64((100+nodeChunk-1)/nodeChunk); got != want {
		t.Fatalf("100 inserts into a fresh tree: %v allocations, want %v (one per chunk)", got, want)
	}

	var tr Tree[int]
	fill(&tr)
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	unissued := len(tr.chunk)

	// Delete half, re-insert: the recycled nodes are reused.
	for i := 0; i < 100; i += 2 {
		if !tr.Delete(Key{Size: i % 25, Off: i}) {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	for i := 0; i < 100; i += 2 {
		tr.Insert(Key{Size: i % 25, Off: i}, i)
	}
	if err := tr.checkInvariants(); err != nil {
		t.Fatal(err)
	}
	if len(tr.chunk) != unissued || tr.free != nil {
		t.Fatalf("re-insert carved %d new nodes with recycled ones waiting", unissued-len(tr.chunk))
	}

	// Clear recycles everything; the next fill reuses it all.
	tr.Clear()
	if tr.Len() != 0 {
		t.Fatalf("Len after Clear = %d", tr.Len())
	}
	fill(&tr)
	if len(tr.chunk) != unissued || tr.free != nil {
		t.Fatalf("post-Clear fill carved %d new nodes", unissued-len(tr.chunk))
	}

	if got := testing.AllocsPerRun(100, func() {
		tr.Delete(Key{Size: 7, Off: 7})
		tr.Insert(Key{Size: 7, Off: 7}, 7)
	}); got != 0 {
		t.Fatalf("steady-state delete+insert allocates %v times", got)
	}
}

func BenchmarkInsertDelete(b *testing.B) {
	var tr Tree[int]
	rng := rand.New(rand.NewSource(1))
	keys := make([]Key, 4096)
	for i := range keys {
		keys[i] = Key{rng.Intn(1 << 20), i}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := keys[i%len(keys)]
		tr.Insert(k, i)
		if i%2 == 1 {
			tr.Delete(keys[(i-1)%len(keys)])
		}
	}
}

func BenchmarkCeiling(b *testing.B) {
	var tr Tree[int]
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 4096; i++ {
		tr.Insert(Key{rng.Intn(1 << 20), i}, i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Ceiling(rng.Intn(1 << 20))
	}
}

// TestAscend: a seek to the first key not less than from, then an
// in-order scan the visitor can stop — checked against Walk for every
// starting point, keys between entries and beyond both ends included.
func TestAscend(t *testing.T) {
	var tr Tree[int]
	tr.Ascend(Key{}, func(Key, int) bool { t.Fatal("visited an entry of an empty tree"); return false })
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		tr.Insert(Key{Size: rng.Intn(4), Off: rng.Intn(200) * 2}, i)
	}
	var all []Key
	tr.Walk(func(k Key, _ int) bool { all = append(all, k); return true })
	for size := -1; size <= 4; size++ {
		for off := -1; off <= 400; off++ {
			from := Key{Size: size, Off: off}
			var want []Key
			for _, k := range all {
				if !k.Less(from) {
					want = append(want, k)
				}
			}
			var got []Key
			tr.Ascend(from, func(k Key, v int) bool {
				if w, _ := tr.Get(k); w != v {
					t.Fatalf("Ascend(%v) visited %v with value %d, tree holds %d", from, k, v, w)
				}
				got = append(got, k)
				return true
			})
			if !slices.Equal(got, want) {
				t.Fatalf("Ascend(%v) visited %v, want %v", from, got, want)
			}
			if len(want) > 2 {
				n := 0
				tr.Ascend(from, func(Key, int) bool { n++; return n < 2 })
				if n != 2 {
					t.Fatalf("Ascend(%v) made %d visits after the visitor stopped it at 2", from, n)
				}
			}
		}
	}
}
