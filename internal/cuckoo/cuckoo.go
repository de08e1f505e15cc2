// Package cuckoo implements the hash index used by CLaMPI to name cache
// entries (paper §III-C1).
//
// Entries are keyed by (target rank, window displacement) — the hit
// condition of §III-B1 — and stored in a Cuckoo hash table with p = 4
// universal hash functions, giving constant lookup cost (at most p probes)
// and up to ~97% space utilization (Fotakis et al.).
//
// Insertion searches breadth-first for the shortest displacement path
// (Li et al., EuroSys 2014): from the new element's p candidate slots it
// follows each occupant to its other candidates, level by level, until it
// reaches an empty slot or has examined a constant budget of slots. Only
// then does it move anything: at most path-length elements, each one slot
// along the path. Where a classical Cuckoo table would re-hash on
// insertion failure, CLaMPI instead reports the failure as a *conflicting
// access*: a failed search leaves the table unchanged and the new element
// homeless, and the caller picks a victim among its candidate slots and
// completes the placement with ReplaceAt.
package cuckoo

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// NumHashes is the paper's p: the number of hash functions, hence the
// number of candidate slots per key.
const NumHashes = 4

// DefaultSearchBudget bounds the slots one insertion search examines,
// the key's own p candidates included, so it bounds the cost of every
// insert, failed or not. It is the smallest multiple of 8 at which inserts
// into a table held at load 0.95 fail no more often (about 2 %) than under
// the 128-step random walk the search replaced; a failed search is not
// fatal in CLaMPI, merely a conflicting access.
const DefaultSearchBudget = 168

// Key identifies a cache entry: the paper's hit rule matches on target
// rank and displacement only (§III-B1).
type Key struct {
	Target int
	Disp   int
}

func (k Key) String() string { return fmt.Sprintf("t%d+%d", k.Target, k.Disp) }

// Table is a Cuckoo hash table mapping Keys to values of type V.
// Not safe for concurrent use: each caching layer owns one table and runs
// on its rank's goroutine.
type Table[V any] struct {
	slots []slot[V]
	// tags[s] is tagOf the key in slots[s], 0 while the slot is empty: the
	// one record of occupancy. A probe reads the byte and touches the
	// slot's own cache line only when it can match.
	tags  []uint8
	a, b  [NumHashes]uint64
	fastM uint64 // ^uint64(0)/len(slots) + 1, the fastmod constant of slot
	// rng draws the hash family and RandomSlot's samples; Insert draws
	// nothing. Held by value, so that tags adds no allocation per table.
	rng    rand.Rand
	len    int
	budget int
	queue  []bfsNode // the search's queue, one node per examinable slot
}

// bfsNode is one examined, occupied slot of an insertion search; parent is
// the queue index of the slot whose occupant would move into this one's
// place, -1 for the new key's own candidates.
type bfsNode struct {
	slot, parent int32
}

// slot is one key/value cell; an empty slot is the zero slot.
type slot[V any] struct {
	key Key
	val V
}

// New creates a table with the given number of slots (minimum 2*p) and a
// deterministic RNG seed for hash-function selection and RandomSlot.
// The slot reduction is exact only below 2^32 slots; a larger size would
// silently mis-slot keys, so it panics.
func New[V any](size int, seed int64) *Table[V] {
	if size < 2*NumHashes {
		size = 2 * NumHashes
	}
	if uint64(size) >= 1<<32 {
		panic(fmt.Sprintf("cuckoo: %d slots exceed the 2^32 limit of the slot reduction", size))
	}
	t := &Table[V]{
		slots: make([]slot[V], size),
		tags:  make([]uint8, size),
		fastM: ^uint64(0)/uint64(size) + 1,
		rng:   *rand.New(rand.NewSource(seed)),
	}
	t.SetSearchBudget(DefaultSearchBudget)
	t.reseedHashes()
	return t
}

// reseedHashes draws a fresh universal hash family.
func (t *Table[V]) reseedHashes() {
	for i := 0; i < NumHashes; i++ {
		t.a[i] = t.rng.Uint64() | 1 // odd multiplier
		t.b[i] = t.rng.Uint64()
	}
}

// SetSearchBudget adjusts the number of slots an insertion search may
// examine (tests/ablations). The key's p candidates are always examined,
// so a budget of at most p places a key only in an empty candidate.
func (t *Table[V]) SetSearchBudget(n int) {
	if n > 0 {
		t.budget = n
		t.queue = make([]bfsNode, max(n, NumHashes))
	}
}

// Len returns the number of stored entries.
func (t *Table[V]) Len() int { return t.len }

// Cap returns the number of slots (the paper's |I_w|).
func (t *Table[V]) Cap() int { return len(t.slots) }

// LoadFactor returns Len/Cap.
func (t *Table[V]) LoadFactor() float64 {
	return float64(t.len) / float64(len(t.slots))
}

// mix folds a key into a 64-bit word before universal hashing.
func mix(k Key) uint64 {
	x := uint64(k.Target)*0x9E3779B97F4A7C15 ^ uint64(uint(k.Disp))
	x ^= x >> 33
	x *= 0xFF51AFD7ED558CCD
	x ^= x >> 33
	return x
}

// slot returns the i-th candidate slot of a key folded by mix (callers
// mix once per operation, not once per probe). The product's high half is
// used (multiply-shift) so every bit of x influences the slot; reducing
// the low half modulo the table size would make keys that agree modulo the
// size collide under *all* hash functions at once. The reduction is
// h % len(slots) without the division (Lemire's fastmod): exact because h
// and the table size both fit 32 bits.
func (t *Table[V]) slot(i int, x uint64) int {
	return reduce(t.a[i], t.b[i], t.fastM, uint64(len(t.slots)), x)
}

// reduce is slot's arithmetic on its operands: hash x with multiplier a
// and offset b, then reduce into [0, size) with fastM, the fastmod
// constant of size.
func reduce(a, b, fastM, size, x uint64) int {
	s, _ := bits.Mul64(fastM*((a*x+b)>>32), size)
	return int(s)
}

// candidates returns the p candidate slots of a key folded by mix.
func (t *Table[V]) candidates(x uint64) [NumHashes]int {
	var c [NumHashes]int
	for i := range c {
		c[i] = t.slot(i, x)
	}
	return c
}

// Candidates returns the p candidate slot indices of key. Slots may
// repeat if hash functions collide.
func (t *Table[V]) Candidates(k Key) [NumHashes]int { return t.candidates(mix(k)) }

// tagOf is the non-zero one-byte fingerprint of a fold.
func tagOf(x uint64) uint8 { return uint8(x) | 0x80 }

// find returns the slot holding k, whose fold is x, or -1.
func (t *Table[V]) find(k Key, x uint64) int {
	tag := tagOf(x)
	for i := 0; i < NumHashes; i++ {
		s := t.slot(i, x)
		if t.tags[s] == tag && t.slots[s].key == k {
			return s
		}
	}
	return -1
}

// set stores k/v, whose fold is x, in slot s. The fields are stored one
// by one: assigning a composite literal builds the slot on the stack and
// copies it out in wider words than it was written, which stalls store
// forwarding once V is a multi-word struct.
func (t *Table[V]) set(s int, k Key, v V, x uint64) {
	sl := &t.slots[s]
	sl.key = k
	sl.val = v
	t.tags[s] = tagOf(x)
}

// unset empties slot s.
func (t *Table[V]) unset(s int) {
	t.slots[s] = slot[V]{}
	t.tags[s] = 0
}

// hashIndex returns which hash function maps the fold x to slot s, or -1.
func (t *Table[V]) hashIndex(x uint64, s int) int {
	for i := 0; i < NumHashes; i++ {
		if t.slot(i, x) == s {
			return i
		}
	}
	return -1
}

// Lookup returns the value stored for key and the slot holding it.
func (t *Table[V]) Lookup(k Key) (val V, slotIdx int, ok bool) {
	if s := t.find(k, mix(k)); s >= 0 {
		return t.slots[s].val, s, true
	}
	var zero V
	return zero, -1, false
}

// Ptr returns the value stored for key in place, or nil if the key is
// absent. The pointer stays valid until the next Insert, ReplaceAt,
// Delete, DeleteAt, Drain or Clear on the table.
func (t *Table[V]) Ptr(k Key) *V {
	if s := t.find(k, mix(k)); s >= 0 {
		return &t.slots[s].val
	}
	return nil
}

// Update overwrites the value stored for key; it returns false if the key
// is absent.
func (t *Table[V]) Update(k Key, v V) bool {
	s := t.find(k, mix(k))
	if s >= 0 {
		t.slots[s].val = v
	}
	return s >= 0
}

// InsertResult reports the outcome of an Insert.
type InsertResult[V any] struct {
	// Placed is true if the key found a slot. If false, the table is
	// unchanged and the caller must resolve the conflict via ReplaceAt
	// or drop the key.
	Placed bool
	// Moves is the number of stored elements a successful insert moved
	// one slot along its displacement path; 0 when the key went straight
	// into an empty candidate or was not placed.
	Moves int
	// HomelessKey/HomelessVal identify the element left without a slot
	// by a failed insert: always the key and value passed to Insert.
	HomelessKey Key
	HomelessVal V
	// CandidateSlots are the homeless element's p hash positions — the
	// valid homes among which a conflict victim must be chosen. Only
	// meaningful when Placed is false.
	CandidateSlots [NumHashes]int
}

// Insert places key/val, moving stored elements along the shortest
// displacement path the bounded breadth-first search finds. A full table
// fails at once. The key must not already be present (callers Lookup
// first; a duplicate insert panics, as it would corrupt the structure).
func (t *Table[V]) Insert(k Key, v V) InsertResult[V] {
	x := mix(k)
	if t.find(k, x) >= 0 {
		panic(fmt.Sprintf("cuckoo: duplicate insert of %v", k))
	}
	if t.len < len(t.slots) {
		if empty, from := t.search(x); empty >= 0 {
			// Shift every element on the path one slot towards the
			// empty end; a moved element keeps its tag.
			moves := 0
			for n := from; n >= 0; n = t.queue[n].parent {
				s := int(t.queue[n].slot)
				t.slots[empty], t.tags[empty] = t.slots[s], t.tags[s]
				empty = s
				moves++
			}
			t.set(empty, k, v, x)
			t.len++
			return InsertResult[V]{Placed: true, Moves: moves}
		}
	}
	return InsertResult[V]{HomelessKey: k, HomelessVal: v, CandidateSlots: t.candidates(x)}
}

// search looks breadth-first for an empty slot reachable from the key
// whose fold is x. It returns the empty slot and the queue index of the
// node whose occupant moves into it (-1 if it is one of the key's own
// candidates), or -1 once budget occupied slots were examined.
//
// The queue keeps no visited set, so a slot may be reached twice, yet the
// path to the first empty slot found never holds a slot twice (shifting
// along such a cycle would move an element to a slot that is not one of
// its candidates). Nothing moves during the search, so a slot's second
// node has the same occupant, hence the same children, as its first, one
// level or more higher; the search, going level by level, would have
// found the empty slot below the first node before it.
func (t *Table[V]) search(x uint64) (empty int, from int32) {
	q := t.queue
	for i := 0; i < NumHashes; i++ {
		s := t.slot(i, x)
		if t.tags[s] == 0 {
			return s, -1
		}
		q[i] = bfsNode{slot: int32(s), parent: -1}
	}
	// The expansion runs up to budget times per insert: the table's
	// fields are copied to locals so that the stores into q do not make
	// the compiler reload them, and the node is stored before knowing
	// whether it is the occupant's own slot, which then is not counted.
	n, budget := NumHashes, t.budget
	tags, slots := t.tags, t.slots
	a, b, fastM, size := t.a, t.b, t.fastM, uint64(len(t.slots))
	for head := 0; head < n; head++ {
		at := q[head].slot
		y := mix(slots[at].key)
		for i := 0; i < NumHashes; i++ {
			if n >= budget {
				return -1, -1
			}
			s := reduce(a[i], b[i], fastM, size, y)
			if tags[s] == 0 {
				return s, int32(head)
			}
			q[n] = bfsNode{slot: int32(s), parent: int32(head)}
			if int32(s) != at {
				n++
			}
		}
	}
	return -1, -1
}

// ReplaceAt evicts the entry in slotIdx and stores key/val there. The
// slot must be one of key's candidate positions; otherwise lookups for
// key would fail, so ReplaceAt panics. It returns the evicted key/value.
func (t *Table[V]) ReplaceAt(slotIdx int, k Key, v V) (Key, V) {
	x := mix(k)
	if t.hashIndex(x, slotIdx) < 0 {
		panic(fmt.Sprintf("cuckoo: slot %d is not a candidate of %v", slotIdx, k))
	}
	old, used := t.slots[slotIdx], t.tags[slotIdx] != 0
	t.set(slotIdx, k, v, x)
	if !used {
		t.len++
	}
	return old.key, old.val
}

// At returns the occupant of slotIdx.
func (t *Table[V]) At(slotIdx int) (Key, V, bool) {
	if slotIdx < 0 || slotIdx >= len(t.slots) {
		var zero V
		return Key{}, zero, false
	}
	s := t.slots[slotIdx]
	return s.key, s.val, t.tags[slotIdx] != 0
}

// Delete removes key, returning its value.
func (t *Table[V]) Delete(k Key) (V, bool) {
	if s := t.find(k, mix(k)); s >= 0 {
		v := t.slots[s].val
		t.unset(s)
		t.len--
		return v, true
	}
	var zero V
	return zero, false
}

// DeleteAt clears slotIdx, returning the evicted entry.
func (t *Table[V]) DeleteAt(slotIdx int) (Key, V, bool) {
	if slotIdx < 0 || slotIdx >= len(t.slots) || t.tags[slotIdx] == 0 {
		var zero V
		return Key{}, zero, false
	}
	k, v := t.slots[slotIdx].key, t.slots[slotIdx].val
	t.unset(slotIdx)
	t.len--
	return k, v, true
}

// Clear drops all entries, keeping the hash functions and capacity.
func (t *Table[V]) Clear() { t.Drain(nil) }

// Scan visits slots circularly starting at start, calling visit with the
// slot index and occupancy. The visitor returns false to stop. Scan wraps
// at most once around the table. It implements the eviction-procedure
// sampling of §III-D: the caller counts visited/non-empty slots itself.
func (t *Table[V]) Scan(start int, visit func(slotIdx int, k Key, v V, used bool) bool) {
	n := len(t.slots)
	if n == 0 {
		return
	}
	start %= n
	if start < 0 {
		start += n
	}
	for i, s := 0, start; i < n; i++ {
		sl := &t.slots[s]
		if !visit(s, sl.key, sl.val, t.tags[s] != 0) {
			return
		}
		if s++; s == n {
			s = 0
		}
	}
}

// RandomSlot returns a uniformly random slot index (the random sample
// start of §III-D).
func (t *Table[V]) RandomSlot() int { return t.rng.Intn(len(t.slots)) }

// emptyTags is a run of 64 empty slots' tags.
var emptyTags [64]uint8

// next returns the first occupied slot at or after s, or Cap() if there
// is none. Occupancy is read from the tag bytes, so an empty slot never
// costs a slot's cache line, and a run of 64 empty tags costs one compare
// against emptyTags: a whole-table pass pays for the entries it finds
// plus one compare per 64 empty slots.
func (t *Table[V]) next(s int) int {
	tags := t.tags
	if s < len(tags) && tags[s] != 0 {
		return s
	}
	for s+64 <= len(tags) && string(tags[s:s+64]) == string(emptyTags[:]) {
		s += 64
	}
	for ; s < len(tags); s++ {
		if tags[s] != 0 {
			return s
		}
	}
	return s
}

// Walk visits every stored entry in slot order, stopping early when visit
// returns false. It costs what next costs: the entries plus one compare
// per 64 empty slots.
func (t *Table[V]) Walk(visit func(k Key, v V) bool) {
	for s := t.next(0); s < len(t.slots); s = t.next(s + 1) {
		if sl := &t.slots[s]; !visit(sl.key, sl.val) {
			return
		}
	}
}

// Drain empties the table, keeping the hash functions and capacity: it
// visits every stored entry in slot order, if visit is not nil, after
// emptying its slot. Unlike clearing the slot array it costs the entries
// it finds, not the capacity.
func (t *Table[V]) Drain(visit func(k Key, v V)) {
	for s := t.next(0); s < len(t.slots); s = t.next(s + 1) {
		sl := t.slots[s]
		t.unset(s)
		if visit != nil {
			visit(sl.key, sl.val)
		}
	}
	t.len = 0
}
