// Package avl implements the self-balancing binary search tree
// (Adelson-Velskii & Landis) used by the CLaMPI storage manager to index
// free memory regions by size (paper §III-C2).
//
// Keys are (Size, Off) pairs ordered by Size then Off: the secondary
// offset component makes every free region's key unique, so regions of
// equal size coexist. Ceiling(size) implements the best-fit policy — the
// smallest free region large enough for an allocation — in O(log N).
//
// The caching layer keeps a second tree over its entries, keyed (target,
// displacement) in the same two components, and answers "which entries
// overlap this byte range" with Ascend (core/range.go).
package avl

import "fmt"

// Key orders tree entries: primary by Size, ties broken by Off. For free
// regions, Size is the region length and Off its buffer offset.
type Key struct {
	Size int
	Off  int
}

// Less is the strict ordering of keys.
func (k Key) Less(o Key) bool {
	if k.Size != o.Size {
		return k.Size < o.Size
	}
	return k.Off < o.Off
}

func (k Key) String() string { return fmt.Sprintf("(%d@%d)", k.Size, k.Off) }

// Tree is an AVL tree mapping Keys to values of type V. The zero value is
// an empty tree ready for use. Not safe for concurrent mutation.
//
// A tree owns its nodes: it takes them from the heap nodeChunk at a time
// and recycles deleted ones through a free list, so a steady-state
// insert/delete cycle allocates nothing and two trees never share node
// memory.
type Tree[V any] struct {
	root  *node[V]
	size  int
	free  *node[V]  // recycled nodes, linked through right
	chunk []node[V] // unissued nodes of the newest chunk
}

// nodeChunk is how many nodes a tree takes from the heap at a time: 64
// cover the free-region count of a typical cache without a second chunk.
const nodeChunk = 64

type node[V any] struct {
	key         Key
	val         V
	left, right *node[V]
	height      int
}

// Len returns the number of entries.
func (t *Tree[V]) Len() int { return t.size }

// newNode returns a node initialized to (key, val, height 1): a recycled
// one when there is one, else the next of the current chunk.
func (t *Tree[V]) newNode(key Key, val V) *node[V] {
	n := t.free
	if n != nil {
		t.free = n.right
	} else {
		if len(t.chunk) == 0 {
			t.chunk = make([]node[V], nodeChunk)
		}
		n = &t.chunk[0]
		t.chunk = t.chunk[1:]
	}
	*n = node[V]{key: key, val: val, height: 1}
	return n
}

// recycle pushes a detached node onto the free list, dropping its value
// reference.
func (t *Tree[V]) recycle(n *node[V]) {
	var zero V
	n.val = zero
	n.left = nil
	n.right = t.free
	t.free = n
}

// Clear empties the tree, recycling every node.
func (t *Tree[V]) Clear() {
	var drop func(n *node[V])
	drop = func(n *node[V]) {
		if n == nil {
			return
		}
		drop(n.left)
		drop(n.right)
		t.recycle(n)
	}
	drop(t.root)
	t.root = nil
	t.size = 0
}

func h[V any](n *node[V]) int {
	if n == nil {
		return 0
	}
	return n.height
}

func fix[V any](n *node[V]) {
	lh, rh := h(n.left), h(n.right)
	if lh > rh {
		n.height = lh + 1
	} else {
		n.height = rh + 1
	}
}

func balanceOf[V any](n *node[V]) int { return h(n.left) - h(n.right) }

func rotateRight[V any](y *node[V]) *node[V] {
	x := y.left
	y.left = x.right
	x.right = y
	fix(y)
	fix(x)
	return x
}

func rotateLeft[V any](x *node[V]) *node[V] {
	y := x.right
	x.right = y.left
	y.left = x
	fix(x)
	fix(y)
	return y
}

func rebalance[V any](n *node[V]) *node[V] {
	fix(n)
	switch b := balanceOf(n); {
	case b > 1:
		if balanceOf(n.left) < 0 {
			n.left = rotateLeft(n.left)
		}
		return rotateRight(n)
	case b < -1:
		if balanceOf(n.right) > 0 {
			n.right = rotateRight(n.right)
		}
		return rotateLeft(n)
	}
	return n
}

// Insert adds or replaces the entry for key. It returns true if a new
// entry was created (false if an existing key's value was replaced).
func (t *Tree[V]) Insert(key Key, val V) bool {
	var created bool
	t.root, created = t.insert(t.root, key, val)
	if created {
		t.size++
	}
	return created
}

func (t *Tree[V]) insert(n *node[V], key Key, val V) (*node[V], bool) {
	if n == nil {
		return t.newNode(key, val), true
	}
	var created bool
	switch {
	case key.Less(n.key):
		n.left, created = t.insert(n.left, key, val)
	case n.key.Less(key):
		n.right, created = t.insert(n.right, key, val)
	default:
		n.val = val
		return n, false
	}
	return rebalance(n), created
}

// Delete removes the entry for key, returning true if it existed.
func (t *Tree[V]) Delete(key Key) bool {
	var deleted bool
	t.root, deleted = t.remove(t.root, key)
	if deleted {
		t.size--
	}
	return deleted
}

func (t *Tree[V]) remove(n *node[V], key Key) (*node[V], bool) {
	if n == nil {
		return nil, false
	}
	var deleted bool
	switch {
	case key.Less(n.key):
		n.left, deleted = t.remove(n.left, key)
	case n.key.Less(key):
		n.right, deleted = t.remove(n.right, key)
	default:
		deleted = true
		if n.left == nil {
			r := n.right
			t.recycle(n)
			return r, true
		}
		if n.right == nil {
			l := n.left
			t.recycle(n)
			return l, true
		}
		// Replace with in-order successor.
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n.key, n.val = succ.key, succ.val
		n.right, _ = t.remove(n.right, succ.key)
	}
	return rebalance(n), deleted
}

// Get returns the value stored for key.
func (t *Tree[V]) Get(key Key) (V, bool) {
	n := t.root
	for n != nil {
		switch {
		case key.Less(n.key):
			n = n.left
		case n.key.Less(key):
			n = n.right
		default:
			return n.val, true
		}
	}
	var zero V
	return zero, false
}

// Ceiling returns the entry with the smallest key k such that k.Size >=
// size (best fit). The ok result is false if no region is large enough.
func (t *Tree[V]) Ceiling(size int) (Key, V, bool) {
	var (
		best   *node[V]
		target = Key{Size: size, Off: -1 << 62}
	)
	n := t.root
	for n != nil {
		if target.Less(n.key) || target == n.key {
			best = n
			n = n.left
		} else {
			n = n.right
		}
	}
	if best == nil {
		var zero V
		return Key{}, zero, false
	}
	return best.key, best.val, true
}

// Min returns the smallest key in the tree.
func (t *Tree[V]) Min() (Key, V, bool) {
	if t.root == nil {
		var zero V
		return Key{}, zero, false
	}
	n := t.root
	for n.left != nil {
		n = n.left
	}
	return n.key, n.val, true
}

// Max returns the largest key in the tree.
func (t *Tree[V]) Max() (Key, V, bool) {
	if t.root == nil {
		var zero V
		return Key{}, zero, false
	}
	n := t.root
	for n.right != nil {
		n = n.right
	}
	return n.key, n.val, true
}

// Walk visits all entries in ascending key order; the visitor returns
// false to stop early.
func (t *Tree[V]) Walk(f func(Key, V) bool) {
	walk(t.root, f)
}

func walk[V any](n *node[V], f func(Key, V) bool) bool {
	if n == nil {
		return true
	}
	return walk(n.left, f) && f(n.key, n.val) && walk(n.right, f)
}

// Ascend visits the entries whose key is not less than from, in ascending
// key order, until the visitor returns false: a seek and a scan,
// O(log N + visited).
func (t *Tree[V]) Ascend(from Key, f func(Key, V) bool) {
	ascend(t.root, from, f)
}

func ascend[V any](n *node[V], from Key, f func(Key, V) bool) bool {
	if n == nil {
		return true
	}
	if !n.key.Less(from) && !(ascend(n.left, from, f) && f(n.key, n.val)) {
		return false
	}
	return ascend(n.right, from, f)
}

// Height returns the tree height (0 for empty); exposed for balance tests.
func (t *Tree[V]) Height() int { return h(t.root) }

// checkInvariants verifies AVL balance and BST ordering; test helper.
func (t *Tree[V]) checkInvariants() error {
	_, err := check(t.root, nil, nil)
	return err
}

func check[V any](n *node[V], lo, hi *Key) (int, error) {
	if n == nil {
		return 0, nil
	}
	if lo != nil && !lo.Less(n.key) {
		return 0, fmt.Errorf("avl: order violation at %v (lower bound %v)", n.key, *lo)
	}
	if hi != nil && !n.key.Less(*hi) {
		return 0, fmt.Errorf("avl: order violation at %v (upper bound %v)", n.key, *hi)
	}
	lh, err := check(n.left, lo, &n.key)
	if err != nil {
		return 0, err
	}
	rh, err := check(n.right, &n.key, hi)
	if err != nil {
		return 0, err
	}
	if d := lh - rh; d < -1 || d > 1 {
		return 0, fmt.Errorf("avl: imbalance %d at %v", d, n.key)
	}
	if want := max(lh, rh) + 1; n.height != want {
		return 0, fmt.Errorf("avl: stale height at %v: %d want %d", n.key, n.height, want)
	}
	return max(lh, rh) + 1, nil
}
