// Corpus for observerlock: core.Observer notifications while a mutex is
// held.
package obslock

import (
	"sync"

	"clampi/internal/core"
)

// shard models mutex-guarded state with an observer hook.
type shard struct {
	mu  sync.Mutex
	rw  sync.RWMutex
	obs core.Observer
	n   int
}

// notifyUnderLock extends the critical section into user code.
func notifyUnderLock(s *shard, e core.AccessEvent) {
	s.mu.Lock()
	s.n++
	s.obs.OnAccess(e) // want `core\.Observer\.OnAccess called while a mutex is held`
	s.mu.Unlock()
}

// notifyUnderDeferredUnlock holds the lock to function end.
func notifyUnderDeferredUnlock(s *shard, e core.EvictionEvent) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.n++
	s.obs.OnEviction(e) // want `core\.Observer\.OnEviction called while a mutex is held`
}

// notifyUnderRLock: read locks extend the critical section too.
func notifyUnderRLock(s *shard, e core.EpochEvent) {
	s.rw.RLock()
	defer s.rw.RUnlock()
	s.obs.OnEpochClose(e) // want `core\.Observer\.OnEpochClose called while a mutex is held`
}

// notifyAfterUnlock is the sanctioned pattern: snapshot under the lock,
// notify outside it.
func notifyAfterUnlock(s *shard, e core.AccessEvent) {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.obs.OnAccess(e)
}

// notifyWithoutLock: the nil-check-only hot path.
func notifyWithoutLock(s *shard, e core.AccessEvent) {
	if s.obs != nil {
		s.obs.OnAccess(e)
	}
}
