package mpi

// Generalized active-target synchronization (MPI_Win_post / start /
// complete / wait). The paper notes CLaMPI "does not depend on a specific
// target synchronization mode but on the epoch closure event, that is
// present in both active and passive modes" — Complete is that closure
// event for PSCW epochs, and it fires the same epoch listeners as
// Flush/Unlock, so the caching layer works over PSCW unchanged.

import (
	"sync"

	"clampi/internal/simtime"
)

// pscwState is the per-window cross-rank handshake state, created lazily
// under the shared window's lock.
type pscwState struct {
	mu sync.Mutex
	// post[origin][target] delivers the target's Post time to origins.
	// done[target][origin] delivers the origin's Complete time back.
	post map[int]map[int]chan simtime.Duration
	done map[int]map[int]chan simtime.Duration
}

func pairChan(m map[int]map[int]chan simtime.Duration, a, b int) chan simtime.Duration {
	inner, ok := m[a]
	if !ok {
		inner = make(map[int]chan simtime.Duration)
		m[a] = inner
	}
	ch, ok := inner[b]
	if !ok {
		ch = make(chan simtime.Duration, 8)
		inner[b] = ch
	}
	return ch
}

// pscw returns the window's handshake state, creating it on first use.
func (w *Win) pscw() *pscwState {
	w.shared.pscwOnce.Do(func() {
		w.shared.pscwState = &pscwState{
			post: make(map[int]map[int]chan simtime.Duration),
			done: make(map[int]map[int]chan simtime.Duration),
		}
	})
	return w.shared.pscwState
}

// Post opens an exposure epoch towards the given origin ranks
// (MPI_Win_post): each of them may access this rank's region between
// their Start and Complete. Post does not block.
func (w *Win) Post(origins []int) error {
	if w.freed {
		return ErrFreed
	}
	s := w.pscw()
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, o := range origins {
		if o < 0 || o >= len(w.shared.regions) {
			return ErrRankRange
		}
		pairChan(s.post, o, w.rank.id) <- w.rank.clock.Now()
	}
	w.exposed = append(w.exposed[:0], origins...)
	return nil
}

// Start opens an access epoch towards the given target ranks
// (MPI_Win_start), blocking until each has posted. RMA calls to those
// targets are legal until Complete.
func (w *Win) Start(targets []int) error {
	if w.freed {
		return ErrFreed
	}
	s := w.pscw()
	for _, t := range targets {
		if t < 0 || t >= len(w.shared.regions) {
			return ErrRankRange
		}
		s.mu.Lock()
		ch := pairChan(s.post, w.rank.id, t)
		s.mu.Unlock()
		postTime := <-ch
		// The post notification travels one message latency.
		w.rank.clock.AdvanceTo(postTime + w.rank.Model().GetLatency(0, w.rank.Distance(t)))
	}
	w.started = append(w.started[:0], targets...)
	return nil
}

// Complete ends the access epoch opened by Start (MPI_Win_complete): all
// outstanding operations complete, the epoch closes (CLaMPI's epoch
// listeners fire), and the targets' Wait calls are released.
func (w *Win) Complete() error {
	if w.freed {
		return ErrFreed
	}
	if len(w.started) == 0 {
		return ErrNoEpoch
	}
	w.completePending(-1)
	w.closeEpoch()
	s := w.pscw()
	s.mu.Lock()
	for _, t := range w.started {
		pairChan(s.done, t, w.rank.id) <- w.rank.clock.Now()
	}
	s.mu.Unlock()
	w.started = w.started[:0]
	return nil
}

// Wait ends the exposure epoch opened by Post (MPI_Win_wait), blocking
// until every origin has called Complete.
func (w *Win) Wait() error {
	if w.freed {
		return ErrFreed
	}
	if len(w.exposed) == 0 {
		return ErrNoEpoch
	}
	s := w.pscw()
	for _, o := range w.exposed {
		s.mu.Lock()
		ch := pairChan(s.done, w.rank.id, o)
		s.mu.Unlock()
		doneTime := <-ch
		w.rank.clock.AdvanceTo(doneTime + w.rank.Model().GetLatency(0, w.rank.Distance(o)))
	}
	w.exposed = w.exposed[:0]
	return nil
}
