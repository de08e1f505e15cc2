package mpi

// Passive-target lock management. MPI_Win_lock supports shared and
// exclusive locks; exclusive locks mutually exclude every other lock on
// the same target, which the simulated runtime enforces for real: a rank
// blocks on a contended lock until its holder releases it.

import (
	"errors"
	"sync"

	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// LockType selects MPI_LOCK_SHARED or MPI_LOCK_EXCLUSIVE. It aliases the
// transport-layer type so callers can use either package's constants.
type LockType = rma.LockType

const (
	// LockShared permits concurrent lock holders (MPI_LOCK_SHARED).
	LockShared = rma.LockShared
	// LockExclusive excludes all other holders (MPI_LOCK_EXCLUSIVE).
	LockExclusive = rma.LockExclusive
)

// ErrAlreadyLocked reports a second Lock on a target this origin already
// holds locked.
var ErrAlreadyLocked = errors.New("mpi: target already locked by this origin")

// targetLock is the cross-rank lock state of one (window, target) pair.
type targetLock struct {
	mu           sync.Mutex
	exclusive    bool
	sharedCount  int
	releaseClock simtime.Duration // virtual time of the latest release
	waiters      []chan struct{}
}

// lockState returns the shared lock table of the window.
func (w *Win) lockState(target int) *targetLock {
	w.shared.lockOnce.Do(func() {
		w.shared.locks = make([]*targetLock, len(w.shared.regions))
		for i := range w.shared.locks {
			w.shared.locks[i] = &targetLock{}
		}
	})
	return w.shared.locks[target]
}

// acquire blocks until the lock of the given type is granted, then
// returns the virtual release time of the previous conflicting holder
// (zero if uncontended).
func (w *Win) acquire(target int, typ LockType) simtime.Duration {
	tl := w.lockState(target)
	for {
		tl.mu.Lock()
		free := !tl.exclusive && (typ == LockShared || tl.sharedCount == 0)
		if free {
			if typ == LockExclusive {
				tl.exclusive = true
			} else {
				tl.sharedCount++
			}
			rel := tl.releaseClock
			tl.mu.Unlock()
			return rel
		}
		ch := make(chan struct{})
		tl.waiters = append(tl.waiters, ch)
		tl.mu.Unlock()
		<-ch
	}
}

// release drops this origin's hold and wakes every waiter (they retry).
func (w *Win) release(target int, typ LockType) {
	tl := w.lockState(target)
	tl.mu.Lock()
	if typ == LockExclusive {
		tl.exclusive = false
	} else if tl.sharedCount > 0 {
		tl.sharedCount--
	}
	if w.rank.clock.Now() > tl.releaseClock {
		tl.releaseClock = w.rank.clock.Now()
	}
	ws := tl.waiters
	tl.waiters = nil
	tl.mu.Unlock()
	for _, ch := range ws {
		close(ch)
	}
}

// LockWithType opens a passive-target access epoch towards target with
// an explicit lock type (MPI_Win_lock). An exclusive lock blocks until
// every other holder of the target releases; the acquirer's clock
// advances past the previous holder's release. A type other than
// LockShared and LockExclusive is refused with rma.ErrLockType before
// the lock is touched.
func (w *Win) LockWithType(typ LockType, target int) error {
	if w.freed {
		return ErrFreed
	}
	if typ != LockShared && typ != LockExclusive {
		return rma.ErrLockType
	}
	if target < 0 || target >= len(w.shared.regions) {
		return ErrRankRange
	}
	if _, held := w.lockedTargets[target]; held {
		return ErrAlreadyLocked
	}
	rel := w.acquire(target, typ)
	// Lock acquisition is a lightweight remote CAS; a contended
	// exclusive lock additionally serializes after the previous
	// holder's release.
	lat := w.rank.Model().GetLatency(8, w.rank.Distance(target))
	if rel > 0 {
		w.rank.clock.AdvanceTo(rel)
	}
	w.rank.clock.Advance(lat)
	if w.lockedTargets == nil {
		w.lockedTargets = make(map[int]LockType)
	}
	w.lockedTargets[target] = typ
	return nil
}
