// Package storage implements CLaMPI's cache storage S_w (paper §III-C2,
// §III-C3): a contiguous memory buffer holding variable-size cache
// entries.
//
// Allocations are rounded up to the CPU cache-line size to preserve
// alignment. Free regions are indexed by an AVL tree keyed on their size,
// so allocation follows a best-fit policy in O(log N). Cache entries and
// free regions are described by descriptors kept in a doubly linked list
// in buffer-address order; the list makes the free memory adjacent to an
// entry (the paper's d_c, input to the positional score) available in
// O(1), and lets eviction coalesce a freed entry with its free neighbours
// in O(1).
package storage

import (
	"errors"
	"fmt"

	"clampi/internal/avl"
)

// CacheLine is the allocation granularity (bytes).
const CacheLine = 64

// ErrTooLarge is returned when a request exceeds the buffer capacity.
var ErrTooLarge = errors.New("storage: request exceeds buffer capacity")

// Region describes one contiguous range of the buffer: either a cache
// entry's storage or a free region. Regions are owned by the Manager;
// callers hold *Region handles returned by Alloc and must not copy them.
type Region struct {
	off  int
	size int
	free bool

	prev, next *Region
}

// Off returns the region's byte offset in the buffer.
func (r *Region) Off() int { return r.off }

// Size returns the region's length in bytes (cache-line rounded).
func (r *Region) Size() int { return r.size }

// Free reports whether the region is free space.
func (r *Region) Free() bool { return r.free }

func (r *Region) String() string {
	kind := "entry"
	if r.free {
		kind = "free"
	}
	return fmt.Sprintf("%s[%d:%d)", kind, r.off, r.off+r.size)
}

// Policy selects the free-region search strategy.
type Policy int

const (
	// BestFit takes the smallest free region that fits, via the AVL
	// index in O(log N) — the paper's design (§III-C2).
	BestFit Policy = iota
	// FirstFit takes the lowest-addressed free region that fits, via a
	// linear descriptor-list scan. Provided as an ablation baseline:
	// simpler, O(N), and typically more fragmentation-prone for
	// variable-size entries.
	FirstFit
)

func (p Policy) String() string {
	if p == FirstFit {
		return "first-fit"
	}
	return "best-fit"
}

// Manager owns the cache memory buffer and its allocation metadata.
// Not safe for concurrent use; each caching layer owns one Manager.
type Manager struct {
	buf    []byte
	head   *Region // address-ordered descriptor list
	tree   avl.Tree[*Region]
	policy Policy

	freeBytes int
	entries   int

	pool *Region // recycled descriptors, linked through next
}

// newRegion takes a descriptor off the pool (or allocates one). Pooling
// keeps the steady-state alloc/free cycle of the cache allocation-free.
func (m *Manager) newRegion(off, size int, free bool) *Region {
	r := m.pool
	if r == nil {
		return &Region{off: off, size: size, free: free}
	}
	m.pool = r.next
	*r = Region{off: off, size: size, free: free}
	return r
}

// recycle returns a discarded descriptor to the pool. Callers must not
// hold live references to it afterwards (stale entry handles exist after
// FreeRegion, but the contract forbids dereferencing them).
func (m *Manager) recycle(r *Region) {
	*r = Region{next: m.pool}
	m.pool = r
}

// New creates a best-fit manager over a buffer of the given size, rounded
// up to a whole number of cache lines (minimum one line).
func New(size int) *Manager { return NewWithPolicy(size, BestFit) }

// NewWithPolicy creates a manager with an explicit allocation policy.
func NewWithPolicy(size int, policy Policy) *Manager {
	if size < CacheLine {
		size = CacheLine
	}
	size = roundUp(size)
	m := &Manager{buf: make([]byte, size), policy: policy}
	r := &Region{off: 0, size: size, free: true}
	m.head = r
	m.tree.Insert(key(r), r)
	m.freeBytes = size
	return m
}

// Policy returns the allocation policy in use.
func (m *Manager) Policy() Policy { return m.policy }

func roundUp(n int) int {
	return (n + CacheLine - 1) / CacheLine * CacheLine
}

func key(r *Region) avl.Key { return avl.Key{Size: r.size, Off: r.off} }

// Capacity returns the buffer size (the paper's |S_w|).
func (m *Manager) Capacity() int { return len(m.buf) }

// FreeBytes returns the total free space (possibly fragmented).
func (m *Manager) FreeBytes() int { return m.freeBytes }

// UsedBytes returns the space held by entries.
func (m *Manager) UsedBytes() int { return len(m.buf) - m.freeBytes }

// Occupancy returns UsedBytes/Capacity, the y-axis of the paper's Fig. 10.
func (m *Manager) Occupancy() float64 {
	return float64(m.UsedBytes()) / float64(len(m.buf))
}

// Entries returns the number of allocated regions.
func (m *Manager) Entries() int { return m.entries }

// LargestFree returns the size of the largest free region (0 if none):
// the best single allocation the buffer can satisfy.
func (m *Manager) LargestFree() int {
	k, _, ok := m.tree.Max()
	if !ok {
		return 0
	}
	return k.Size
}

// Bytes returns the payload slice of an allocated region, capped at n
// bytes (the entry's actual payload may be shorter than the rounded
// region).
func (m *Manager) Bytes(r *Region, n int) []byte {
	if n < 0 || n > r.size {
		n = r.size
	}
	return m.buf[r.off : r.off+n]
}

// Slice returns n bytes of the buffer at off, for callers that keep an
// allocated region's offset (Region.Off) beside their own hot fields
// instead of chasing the region pointer; Bytes is the checked form.
func (m *Manager) Slice(off, n int) []byte { return m.buf[off : off+n] }

// Alloc reserves n bytes (cache-line rounded) using the configured
// policy. It returns nil if no single free region can hold the request —
// the caller decides whether that is a capacity access (evict and retry)
// or a failing access.
func (m *Manager) Alloc(n int) *Region {
	if n <= 0 {
		n = 1
	}
	n = roundUp(n)
	var r *Region
	if m.policy == FirstFit {
		for x := m.head; x != nil; x = x.next {
			if x.free && x.size >= n {
				r = x
				break
			}
		}
		if r == nil {
			return nil
		}
	} else {
		var ok bool
		_, r, ok = m.tree.Ceiling(n)
		if !ok {
			return nil
		}
	}
	m.tree.Delete(key(r))
	if r.size == n {
		r.free = false
		m.freeBytes -= n
		m.entries++
		return r
	}
	// Split: the entry takes the front, the remainder stays free. The
	// new descriptor slots into the address-ordered list right after r
	// in O(1) (paper §III-C3).
	rest := m.newRegion(r.off+n, r.size-n, true)
	rest.prev, rest.next = r, r.next
	if r.next != nil {
		r.next.prev = rest
	}
	r.next = rest
	r.size = n
	r.free = false
	m.tree.Insert(key(rest), rest)
	m.freeBytes -= n
	m.entries++
	return r
}

// FreeRegion releases an allocated region, coalescing it with free
// neighbours. The handle must not be used afterwards.
func (m *Manager) FreeRegion(r *Region) {
	if r.free {
		panic("storage: double free of " + r.String())
	}
	r.free = true
	m.freeBytes += r.size
	m.entries--
	// Coalesce with next.
	if n := r.next; n != nil && n.free {
		m.tree.Delete(key(n))
		r.size += n.size
		r.next = n.next
		if n.next != nil {
			n.next.prev = r
		}
		m.recycle(n)
	}
	// Coalesce with prev.
	if p := r.prev; p != nil && p.free {
		m.tree.Delete(key(p))
		p.size += r.size
		p.next = r.next
		if r.next != nil {
			r.next.prev = p
		}
		m.recycle(r)
		r = p
	}
	m.tree.Insert(key(r), r)
}

// Grow extends an allocated region in place by at least extra bytes
// (cache-line rounded), consuming space from an adjacent free successor.
// It returns false (leaving the region untouched) if the successor cannot
// supply the space. Used for partial hits (§III-B1): the cached prefix
// stays put and the entry is extended only if S_w has adjacent room.
func (m *Manager) Grow(r *Region, extra int) bool {
	if r.free {
		panic("storage: Grow on free region " + r.String())
	}
	if extra <= 0 {
		return true
	}
	extra = roundUp(extra)
	n := r.next
	if n == nil || !n.free || n.size < extra {
		return false
	}
	m.tree.Delete(key(n))
	if n.size == extra {
		r.size += extra
		r.next = n.next
		if n.next != nil {
			n.next.prev = r
		}
		m.recycle(n)
	} else {
		n.off += extra
		n.size -= extra
		r.size += extra
		m.tree.Insert(key(n), n)
	}
	m.freeBytes -= extra
	return true
}

// AdjacentFree returns d_c: the total free memory adjacent to the region
// (paper §III-C2). O(1) via the descriptor list.
func (m *Manager) AdjacentFree(r *Region) int {
	d := 0
	if p := r.prev; p != nil && p.free {
		d += p.size
	}
	if n := r.next; n != nil && n.free {
		d += n.size
	}
	return d
}

// Reset frees everything, restoring a single free region of the current
// capacity. Used on cache invalidation.
func (m *Manager) Reset() {
	for r := m.head; r != nil; {
		next := r.next
		m.recycle(r)
		r = next
	}
	m.tree.Clear()
	r := m.newRegion(0, len(m.buf), true)
	m.head = r
	m.tree.Insert(key(r), r)
	m.freeBytes = len(m.buf)
	m.entries = 0
}

// Resize recreates the manager with a new capacity, dropping all entries
// (adaptive tuning always invalidates on a parameter change, §III-E).
func (m *Manager) Resize(size int) {
	if size < CacheLine {
		size = CacheLine
	}
	size = roundUp(size)
	m.buf = make([]byte, size)
	m.Reset()
}

// FreeRegions returns the number of distinct free regions (fragmentation
// indicator for tests and stats).
func (m *Manager) FreeRegions() int { return m.tree.Len() }

// Walk visits all descriptors in address order.
func (m *Manager) Walk(f func(*Region) bool) {
	for r := m.head; r != nil; r = r.next {
		if !f(r) {
			return
		}
	}
}

// CheckInvariants validates the descriptor list, the AVL index, and the
// accounting. Test helper: O(N).
func (m *Manager) CheckInvariants() error {
	seenFree := 0
	freeBytes := 0
	entries := 0
	off := 0
	var prev *Region
	for r := m.head; r != nil; r = r.next {
		if r.off != off {
			return fmt.Errorf("storage: gap or overlap at %v (expected off %d)", r, off)
		}
		if r.size <= 0 || r.size%CacheLine != 0 {
			return fmt.Errorf("storage: bad size %v", r)
		}
		if r.prev != prev {
			return fmt.Errorf("storage: broken prev link at %v", r)
		}
		if r.free {
			if prev != nil && prev.free {
				return fmt.Errorf("storage: uncoalesced free regions at %v", r)
			}
			seenFree++
			freeBytes += r.size
			if got, ok := m.tree.Get(key(r)); !ok || got != r {
				return fmt.Errorf("storage: free region %v not indexed", r)
			}
		} else {
			entries++
		}
		off += r.size
		prev = r
	}
	if off != len(m.buf) {
		return fmt.Errorf("storage: descriptors cover %d of %d bytes", off, len(m.buf))
	}
	if seenFree != m.tree.Len() {
		return fmt.Errorf("storage: %d free regions in list, %d in tree", seenFree, m.tree.Len())
	}
	if freeBytes != m.freeBytes {
		return fmt.Errorf("storage: freeBytes %d, accounted %d", freeBytes, m.freeBytes)
	}
	if entries != m.entries {
		return fmt.Errorf("storage: entries %d, accounted %d", entries, m.entries)
	}
	return nil
}
