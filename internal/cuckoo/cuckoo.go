// Package cuckoo implements the hash index used by CLaMPI to name cache
// entries (paper §III-C1).
//
// Entries are keyed by (target rank, window displacement) — the hit
// condition of §III-B1 — and stored in a Cuckoo hash table with p = 4
// universal hash functions, giving constant lookup cost (at most p probes)
// and up to ~97% space utilization (Fotakis et al.).
//
// Insertion uses the random-walk scheme: a new element is placed at one of
// its p positions, displacing any occupant, which is then re-placed at one
// of its other positions, and so on up to a maximum number of iterations.
// Where a classical Cuckoo table would re-hash on insertion failure,
// CLaMPI instead reports the failure as a *conflicting access*: the caller
// picks a victim among the homeless element's candidate slots (the tail of
// the insertion path) and completes the placement with ReplaceAt.
package cuckoo

import (
	"fmt"
	"math/bits"
	"math/rand"
)

// NumHashes is the paper's p: the number of hash functions, hence the
// number of candidate slots per key.
const NumHashes = 4

// DefaultMaxIterations bounds the random-walk displacement chain; hitting
// the bound signals a (possible) cycle in the Cuckoo graph. Random-walk
// insertion needs O(log n) steps in expectation but has a heavy tail near
// high load factors, so the bound is generous — a failed walk is not fatal
// in CLaMPI, merely a conflicting access.
const DefaultMaxIterations = 128

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
	tags    []uint8
	a, b    [NumHashes]uint64
	fastM   uint64    // ^uint64(0)/len(slots) + 1, the fastmod constant of slot
	rng     rand.Rand // held by value, so that tags adds no allocation per table
	len     int
	maxIter int
	path    []int // reusable walk buffer; InsertResult.Path aliases it
}

// slot is one key/value cell; an empty slot is the zero slot.
type slot[V any] struct {
	key Key
	val V
}

// New creates a table with the given number of slots (minimum 2*p) and a
// deterministic RNG seed for hash-function selection and walk randomness.
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
		slots:   make([]slot[V], size),
		tags:    make([]uint8, size),
		fastM:   ^uint64(0)/uint64(size) + 1,
		rng:     *rand.New(rand.NewSource(seed)),
		maxIter: DefaultMaxIterations,
	}
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

// SetMaxIterations adjusts the displacement-walk bound (tests/ablations).
func (t *Table[V]) SetMaxIterations(n int) {
	if n > 0 {
		t.maxIter = n
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
	h := (t.a[i]*x + t.b[i]) >> 32
	s, _ := bits.Mul64(t.fastM*h, uint64(len(t.slots)))
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
// Delete, DeleteAt or Clear on the table.
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
	// Placed is true if every element found a slot. If false, the
	// caller must resolve the conflict via ReplaceAt or drop the
	// homeless element.
	Placed bool
	// Path is the sequence of slot indices visited by the displacement
	// walk (the paper's insertion path). It aliases a per-table scratch
	// buffer and is only valid until the next Insert on the table.
	Path []int
	// HomelessKey/HomelessVal identify the element left without a slot
	// after a failed walk. It is not necessarily the key passed to
	// Insert: displacements may leave a previously stored element
	// homeless instead.
	HomelessKey Key
	HomelessVal V
	// CandidateSlots are the homeless element's p hash positions — the
	// valid homes among which a conflict victim must be chosen. Only
	// meaningful when Placed is false.
	CandidateSlots [NumHashes]int
}

// Insert places key/val using the random-walk scheme. The key must not
// already be present (callers Lookup first; a duplicate insert panics, as
// it would corrupt the structure).
func (t *Table[V]) Insert(k Key, v V) InsertResult[V] {
	x := mix(k) // fold of the walking element
	if t.find(k, x) >= 0 {
		panic(fmt.Sprintf("cuckoo: duplicate insert of %v", k))
	}
	res := InsertResult[V]{Path: t.path[:0]}
	curKey, curVal := k, v
	// The hash-function index whose slot currently holds the walking
	// element; -1 means unconstrained (first placement).
	avoid := -1
	for iter := 0; iter < t.maxIter; iter++ {
		// Pick a random hash index, avoiding the position the
		// element was just displaced from.
		i := t.rng.Intn(NumHashes)
		if i == avoid {
			i = (i + 1 + t.rng.Intn(NumHashes-1)) % NumHashes
		}
		s := t.slot(i, x)
		res.Path = append(res.Path, s)
		if t.tags[s] == 0 {
			t.set(s, curKey, curVal, x)
			t.len++
			res.Placed = true
			t.path = res.Path[:0]
			return res
		}
		// Displace the occupant and walk on with it, swapping in place.
		sl := &t.slots[s]
		sl.key, curKey = curKey, sl.key
		sl.val, curVal = curVal, sl.val
		t.tags[s] = tagOf(x)
		// The displaced element sat in slot s; find which of its
		// hash indices maps there so the next step avoids it.
		x = mix(curKey)
		avoid = t.hashIndex(x, s)
	}
	// Walk exhausted: curKey/curVal is homeless. Its candidate slots
	// are all occupied (otherwise the walk would have placed it).
	res.HomelessKey, res.HomelessVal = curKey, curVal
	res.CandidateSlots = t.candidates(x)
	t.path = res.Path[:0]
	// The element that started the walk is now stored (unless the walk
	// never displaced anyone, i.e. curKey == k after 0 swaps — then
	// nothing was stored). Either way t.len reflects stored entries:
	// every swap kept the count unchanged, and no empty slot was
	// filled, so len is unchanged; the homeless element is simply not
	// stored yet.
	return res
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
func (t *Table[V]) Clear() {
	clear(t.slots)
	clear(t.tags)
	t.len = 0
}

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

// Walk visits every stored entry in slot order. Occupancy is read from
// the tag bytes, so an empty slot costs one byte, not a slot's cache line.
func (t *Table[V]) Walk(visit func(k Key, v V) bool) {
	slots := t.slots
	for s, tag := range t.tags[:len(slots)] {
		if tag == 0 {
			continue
		}
		if sl := &slots[s]; !visit(sl.key, sl.val) {
			return
		}
	}
}
