// Package ip is the interproc engine corpus: a small call landscape
// with direct calls, method calls, a method value, a mutual-recursion
// cycle and defer-released locks, against which the engine's call
// graph and golden lock-set summaries are asserted.
package ip

import "sync"

type S struct {
	mu sync.Mutex // clampi:lockrank fill
}

type W struct {
	mu sync.Mutex // clampi:lockrank stripe
}

type client struct{}

func (c *client) RPC(op byte) error { return nil }

// lockFill returns with the fill mutex held: net acquire.
func (s *S) lockFill() { s.mu.Lock() }

// unlockFill releases on the caller's behalf: net release.
func (s *S) unlockFill() { s.mu.Unlock() }

// withLock brackets with defer: During fill, net zero.
func withLock(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
}

// viaHelper only calls: its summary inherits withLock's During set.
func viaHelper(s *S) {
	withLock(s)
}

// methodValue calls lockFill through a single-assignment local.
func methodValue(s *S) {
	f := s.lockFill
	f()
	s.mu.Unlock()
}

// even/odd form a recursion cycle; even acquires a stripe lock
// before recursing. The engine cuts the cycle at the in-progress
// member, so even's During is seen but odd's view of even is empty —
// the documented recursion caveat.
func even(w *W, n int) {
	w.mu.Lock()
	w.mu.Unlock()
	if n > 0 {
		odd(w, n-1)
	}
}

func odd(w *W, n int) {
	if n > 0 {
		even(w, n-1)
	}
}

// callsBlocked performs a wire round-trip: Blocking propagates.
func callsBlocked(c *client) error { return c.RPC(1) }

// blockedViaHelper inherits Blocking from callsBlocked.
func blockedViaHelper(c *client) error { return callsBlocked(c) }
