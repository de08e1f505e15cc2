package storage

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewRoundsUp(t *testing.T) {
	m := New(100)
	if m.Capacity() != 128 {
		t.Fatalf("Capacity = %d, want 128", m.Capacity())
	}
	if m.FreeBytes() != 128 || m.UsedBytes() != 0 {
		t.Fatalf("free=%d used=%d", m.FreeBytes(), m.UsedBytes())
	}
	if m.Occupancy() != 0 {
		t.Fatalf("Occupancy = %v", m.Occupancy())
	}
	if m2 := New(0); m2.Capacity() != CacheLine {
		t.Fatalf("minimum capacity = %d", m2.Capacity())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocBestFit(t *testing.T) {
	m := New(1024)
	// Carve the buffer into entry/free stripes, then free selected
	// entries to create free regions of different sizes.
	var regs []*Region
	for i := 0; i < 8; i++ {
		r := m.Alloc(128)
		if r == nil {
			t.Fatalf("alloc %d failed", i)
		}
		regs = append(regs, r)
	}
	// Free regions: one of 128 (idx 1) and one of 256 (idx 4,5).
	m.FreeRegion(regs[1])
	m.FreeRegion(regs[4])
	m.FreeRegion(regs[5])
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if m.FreeRegions() != 2 {
		t.Fatalf("FreeRegions = %d, want 2 (coalesced)", m.FreeRegions())
	}
	// Best fit for 100 bytes (rounds to 128) must take the 128 hole,
	// not split the 256 one.
	r := m.Alloc(100)
	if r == nil || r.Off() != regs[1].Off() {
		t.Fatalf("best fit chose %v, want offset %d", r, regs[1].Off())
	}
	if r.Size() != 128 {
		t.Fatalf("allocated size %d, want 128", r.Size())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocSplits(t *testing.T) {
	m := New(1024)
	r := m.Alloc(64)
	if r == nil || r.Size() != 64 || r.Off() != 0 {
		t.Fatalf("first alloc = %v", r)
	}
	if m.FreeBytes() != 960 {
		t.Fatalf("FreeBytes = %d", m.FreeBytes())
	}
	if m.FreeRegions() != 1 {
		t.Fatalf("FreeRegions = %d", m.FreeRegions())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestAllocExhaustion(t *testing.T) {
	m := New(256)
	a := m.Alloc(128)
	b := m.Alloc(128)
	if a == nil || b == nil {
		t.Fatalf("allocs failed")
	}
	if m.Alloc(1) != nil {
		t.Fatalf("alloc from full buffer succeeded")
	}
	if got := m.LargestFree(); got != 0 {
		t.Fatalf("LargestFree on full buffer = %d", got)
	}
	m.FreeRegion(a)
	if got := m.LargestFree(); got != 128 {
		t.Fatalf("LargestFree after free = %d, want 128", got)
	}
}

func TestFragmentationBlocksLargeAlloc(t *testing.T) {
	// Free space is sufficient in total but externally fragmented:
	// Alloc must fail (this is what positional eviction fights).
	m := New(512)
	var regs []*Region
	for i := 0; i < 8; i++ {
		regs = append(regs, m.Alloc(64))
	}
	// Free alternating: 4*64=256 bytes free, largest hole 64.
	for i := 0; i < 8; i += 2 {
		m.FreeRegion(regs[i])
	}
	if m.FreeBytes() != 256 {
		t.Fatalf("FreeBytes = %d", m.FreeBytes())
	}
	if m.LargestFree() != 64 {
		t.Fatalf("LargestFree = %d", m.LargestFree())
	}
	if m.Alloc(128) != nil {
		t.Fatalf("fragmented alloc should fail")
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCoalescingBothSides(t *testing.T) {
	m := New(3 * 64)
	a := m.Alloc(64)
	b := m.Alloc(64)
	c := m.Alloc(64)
	m.FreeRegion(a)
	m.FreeRegion(c)
	if m.FreeRegions() != 2 {
		t.Fatalf("FreeRegions = %d", m.FreeRegions())
	}
	m.FreeRegion(b) // coalesces with both neighbours
	if m.FreeRegions() != 1 {
		t.Fatalf("FreeRegions after middle free = %d, want 1", m.FreeRegions())
	}
	if m.LargestFree() != 192 {
		t.Fatalf("LargestFree = %d, want 192", m.LargestFree())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := New(128)
	r := m.Alloc(64)
	m.FreeRegion(r)
	defer func() {
		if recover() == nil {
			t.Fatalf("double free did not panic")
		}
	}()
	m.FreeRegion(r)
}

func TestGrow(t *testing.T) {
	m := New(512)
	a := m.Alloc(64)
	if !m.Grow(a, 0) {
		t.Fatalf("Grow by 0 failed")
	}
	if !m.Grow(a, 64) {
		t.Fatalf("Grow into free successor failed")
	}
	if a.Size() != 128 {
		t.Fatalf("size after grow = %d", a.Size())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Block the successor with another entry: Grow must fail.
	b := m.Alloc(64)
	if m.Grow(a, 64) {
		t.Fatalf("Grow across an allocated neighbour succeeded")
	}
	_ = b
	// Grow consuming the whole remaining free space.
	c := m.Alloc(64)
	rest := m.FreeBytes()
	if !m.Grow(c, rest) {
		t.Fatalf("Grow to end failed (rest=%d)", rest)
	}
	if m.FreeBytes() != 0 {
		t.Fatalf("FreeBytes = %d after full grow", m.FreeBytes())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestGrowOnFreePanics(t *testing.T) {
	m := New(128)
	r := m.Alloc(64)
	m.FreeRegion(r)
	defer func() {
		if recover() == nil {
			t.Fatalf("Grow on free region did not panic")
		}
	}()
	m.Grow(r, 64)
}

func TestAdjacentFree(t *testing.T) {
	m := New(5 * 64)
	a := m.Alloc(64)
	b := m.Alloc(64)
	c := m.Alloc(64)
	d := m.Alloc(64)
	_ = m.Alloc(64)
	// Layout: a b c d e, all allocated. d_c of b is 0.
	if got := m.AdjacentFree(b); got != 0 {
		t.Fatalf("AdjacentFree = %d, want 0", got)
	}
	m.FreeRegion(a)
	if got := m.AdjacentFree(b); got != 64 {
		t.Fatalf("AdjacentFree after freeing prev = %d, want 64", got)
	}
	m.FreeRegion(c)
	if got := m.AdjacentFree(b); got != 128 {
		t.Fatalf("AdjacentFree both sides = %d, want 128", got)
	}
	m.FreeRegion(d) // coalesces with c's hole: b's next free region = 128
	if got := m.AdjacentFree(b); got != 192 {
		t.Fatalf("AdjacentFree after coalesce = %d, want 192", got)
	}
}

func TestBytes(t *testing.T) {
	m := New(256)
	r := m.Alloc(100) // rounds to 128
	b := m.Bytes(r, 100)
	if len(b) != 100 {
		t.Fatalf("Bytes len = %d", len(b))
	}
	for i := range b {
		b[i] = byte(i)
	}
	if full := m.Bytes(r, -1); len(full) != 128 {
		t.Fatalf("full Bytes len = %d", len(full))
	}
	if over := m.Bytes(r, 1000); len(over) != 128 {
		t.Fatalf("overlong Bytes len = %d", len(over))
	}
	// Data persists.
	if m.Bytes(r, 100)[42] != 42 {
		t.Fatalf("payload lost")
	}
}

func TestResetAndResize(t *testing.T) {
	m := New(1024)
	for i := 0; i < 4; i++ {
		m.Alloc(128)
	}
	m.Reset()
	if m.UsedBytes() != 0 || m.Entries() != 0 || m.FreeRegions() != 1 {
		t.Fatalf("Reset left used=%d entries=%d regions=%d", m.UsedBytes(), m.Entries(), m.FreeRegions())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	m.Resize(4096)
	if m.Capacity() != 4096 || m.FreeBytes() != 4096 {
		t.Fatalf("Resize: cap=%d free=%d", m.Capacity(), m.FreeBytes())
	}
	m.Resize(10)
	if m.Capacity() != CacheLine {
		t.Fatalf("Resize(10): cap=%d", m.Capacity())
	}
	if err := m.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestEntriesCount(t *testing.T) {
	m := New(1024)
	a := m.Alloc(64)
	b := m.Alloc(64)
	if m.Entries() != 2 {
		t.Fatalf("Entries = %d", m.Entries())
	}
	m.FreeRegion(a)
	if m.Entries() != 1 {
		t.Fatalf("Entries = %d after free", m.Entries())
	}
	m.FreeRegion(b)
	if m.Entries() != 0 {
		t.Fatalf("Entries = %d", m.Entries())
	}
}

func TestWalkAddressOrder(t *testing.T) {
	m := New(512)
	m.Alloc(64)
	m.Alloc(128)
	prev := -1
	count := 0
	m.Walk(func(r *Region) bool {
		if r.Off() <= prev {
			t.Fatalf("walk out of order at %v", r)
		}
		prev = r.Off()
		count++
		return true
	})
	if count != 3 { // two entries + trailing free
		t.Fatalf("walked %d descriptors, want 3", count)
	}
	// Early stop.
	count = 0
	m.Walk(func(*Region) bool { count++; return false })
	if count != 1 {
		t.Fatalf("early stop walked %d", count)
	}
}

func TestAllocZeroAndNegative(t *testing.T) {
	m := New(256)
	r := m.Alloc(0)
	if r == nil || r.Size() != CacheLine {
		t.Fatalf("Alloc(0) = %v", r)
	}
	r2 := m.Alloc(-5)
	if r2 == nil || r2.Size() != CacheLine {
		t.Fatalf("Alloc(-5) = %v", r2)
	}
}

func TestRandomAllocFreeInvariant(t *testing.T) {
	// Property: arbitrary alloc/free/grow sequences preserve all
	// structural invariants and never lose bytes.
	f := func(ops []uint8, seed int64) bool {
		m := New(4096)
		rng := rand.New(rand.NewSource(seed))
		var live []*Region
		for _, op := range ops {
			switch {
			case op%3 == 0 && len(live) > 0: // free
				i := rng.Intn(len(live))
				m.FreeRegion(live[i])
				live = append(live[:i], live[i+1:]...)
			case op%3 == 1 && len(live) > 0: // grow
				i := rng.Intn(len(live))
				m.Grow(live[i], int(op)*8)
			default: // alloc
				if r := m.Alloc(int(op)*16 + 1); r != nil {
					live = append(live, r)
				}
			}
			if err := m.CheckInvariants(); err != nil {
				t.Log(err)
				return false
			}
		}
		return m.Entries() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestStringForms(t *testing.T) {
	m := New(128)
	r := m.Alloc(64)
	if r.String() != "entry[0:64)" {
		t.Fatalf("String = %q", r.String())
	}
	m.FreeRegion(r)
	// After coalescing r may have been merged; find the free head.
	var free *Region
	m.Walk(func(x *Region) bool { free = x; return false })
	if free.String() != "free[0:128)" {
		t.Fatalf("String = %q", free.String())
	}
}

func BenchmarkAllocFree(b *testing.B) {
	m := New(1 << 20)
	rng := rand.New(rand.NewSource(1))
	var live []*Region
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(live) > 256 || (len(live) > 0 && rng.Intn(2) == 0) {
			j := rng.Intn(len(live))
			m.FreeRegion(live[j])
			live[j] = live[len(live)-1]
			live = live[:len(live)-1]
		} else if r := m.Alloc(rng.Intn(4096) + 1); r != nil {
			live = append(live, r)
		}
	}
}
