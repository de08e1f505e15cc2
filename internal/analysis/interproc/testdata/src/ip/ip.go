// Package ip is the interproc engine corpus: a small call landscape
// with direct calls, method calls, a method value, a mutual-recursion
// cycle and defer-released locks, against which the engine's call
// graph and golden lock-set summaries are asserted.
package ip

import "sync"

type S struct {
	mu sync.Mutex // clampi:lockrank stripe
}

// lockStripe returns with the stripe mutex held: net acquire.
func (s *S) lockStripe() { s.mu.Lock() }

// unlockStripe releases on the caller's behalf: net release.
func (s *S) unlockStripe() { s.mu.Unlock() }

// withLock brackets with defer: During stripe, net zero.
func withLock(s *S) {
	s.mu.Lock()
	defer s.mu.Unlock()
}

// viaHelper only calls: its summary inherits withLock's During set.
func viaHelper(s *S) {
	withLock(s)
}

// methodValue calls lockStripe through a single-assignment local.
func methodValue(s *S) {
	f := s.lockStripe
	f()
	s.mu.Unlock()
}

// even/odd form a recursion cycle; even acquires a stripe lock
// before recursing. The engine cuts the cycle at the in-progress
// member, so even's During is seen but odd's view of even is empty —
// the documented recursion caveat.
func even(s *S, n int) {
	s.mu.Lock()
	s.mu.Unlock()
	if n > 0 {
		odd(s, n-1)
	}
}

func odd(s *S, n int) {
	if n > 0 {
		even(s, n-1)
	}
}
