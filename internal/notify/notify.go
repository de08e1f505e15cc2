// Package notify provides the notification primitive of the notifiable-
// RMA extension (DESIGN.md §16): a bounded, per-window queue of write
// notifications that a target-side writer pushes and a caching reader
// drains to invalidate — or patch — exactly the spans that changed,
// instead of blanket-invalidating at every epoch closure.
//
// The design center is the UNR model (Feng et al.): PutNotify is an
// ordinary Put that additionally enqueues a small descriptor — origin,
// target, displacement, length, an application tag, and optionally the
// written bytes — at every subscribed rank. The queue is deliberately
// small and lossy-with-a-flag: when a reader falls behind, pushes are
// dropped and a sticky overflow flag is raised, which consumers treat
// as "coherence unknown, invalidate everything". Coherence is therefore
// never silently lost, only degraded to the epoch-blanket behaviour the
// cache had before notifications existed.
//
// Concurrency: Push and Poll are safe for concurrent use (many
// concurrent writer ranks push into one reader's queue). The empty
// check (Depth) is one atomic load, so a caching hit path can probe the
// queue at zero allocation and negligible cost.
package notify

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Notification describes one notified write: origin wrote the byte span
// [Disp, Disp+Len) of target's region. Seq is the queue-local delivery
// sequence number, assigned contiguously at Push — a gap observed by a
// consumer means a notification was lost (dropped by the transport or
// shed by an overflowing queue) and coherence for unknown spans must be
// restored conservatively. Data, when non-nil, carries the bytes that
// were written, enabling in-place patching of cached copies.
type Notification struct {
	Origin int    // rank that issued the PutNotify
	Target int    // rank whose region was written
	Disp   int    // byte displacement of the write
	Len    int    // byte length of the write
	Tag    uint32 // application tag, carried verbatim
	Seq    uint64 // queue-local contiguous delivery sequence (from 1)
	Data   []byte // written bytes, nil when not carried
}

// ErrClosed reports Wait on a queue whose window was freed.
var ErrClosed = errors.New("notify: queue closed")

// DefaultCapacity bounds a queue whose subscriber did not choose one.
const DefaultCapacity = 256

// DataMax is the largest payload a backend carries inline in a
// notification; larger writes notify with Data == nil and consumers
// fall back from patching to span invalidation.
const DataMax = 64 << 10

// Queue is a bounded MPSC-friendly notification ring. All methods are
// safe for concurrent use.
type Queue struct {
	depth atomic.Int64 // clampi:atomic — lock-free emptiness probe for hit paths

	mu         sync.Mutex
	cond       *sync.Cond // signalled on push and close; guards via mu
	buf        []Notification
	head       int // index of the oldest queued notification
	count      int
	nextSeq    uint64
	dropped    uint64
	overflowed bool // sticky until reported by Poll
	closed     bool
}

// NewQueue builds a queue holding at most capacity notifications
// (DefaultCapacity when capacity <= 0).
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	q := &Queue{buf: make([]Notification, capacity)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Cap returns the queue's capacity.
func (q *Queue) Cap() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.buf)
}

// Depth returns the number of queued notifications: one atomic load, so
// hit paths can probe for pending coherence work allocation-free.
func (q *Queue) Depth() int { return int(q.depth.Load()) }

// Push enqueues n, assigning the next delivery sequence number, and
// reports whether it was accepted. A full queue sheds the notification
// (its sequence number is still consumed, so consumers observe a gap)
// and raises the sticky overflow flag.
func (q *Queue) Push(n Notification) bool {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return false
	}
	q.nextSeq++
	n.Seq = q.nextSeq
	if q.count == len(q.buf) {
		q.dropped++
		q.overflowed = true
		q.mu.Unlock()
		return false
	}
	q.buf[(q.head+q.count)%len(q.buf)] = n
	q.count++
	q.depth.Store(int64(q.count))
	q.mu.Unlock()
	q.cond.Signal()
	return true
}

// Poll drains up to len(buf) notifications into buf in delivery order
// and returns how many were written plus the overflow flag, which is
// cleared by the report. An overflow means at least one notification
// was shed since the previous Poll: the consumer no longer knows every
// changed span and must invalidate conservatively.
func (q *Queue) Poll(buf []Notification) (n int, overflowed bool) {
	q.mu.Lock()
	n = q.count
	if n > len(buf) {
		n = len(buf)
	}
	for i := 0; i < n; i++ {
		buf[i] = q.buf[q.head]
		q.buf[q.head] = Notification{}
		q.head = (q.head + 1) % len(q.buf)
	}
	q.count -= n
	q.depth.Store(int64(q.count))
	overflowed = q.overflowed
	q.overflowed = false
	q.mu.Unlock()
	return n, overflowed
}

// LastSeq returns the highest delivery sequence number assigned so far
// (0 before the first push) — the delivered-count register of the UNR
// model. Shed and transport-lost notifications still consume sequence
// numbers, so a consumer that emptied the queue yet trails LastSeq has
// provably missed deliveries and must restore coherence conservatively.
func (q *Queue) LastSeq() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.nextSeq
}

// Wait blocks until the queue is non-empty (returning nil) or closed
// (returning ErrClosed).
func (q *Queue) Wait() error {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.count == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.count == 0 && q.closed {
		return ErrClosed
	}
	return nil
}

// Dropped returns the number of notifications shed by overflow.
func (q *Queue) Dropped() uint64 {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.dropped
}

// Close wakes all waiters and fails future pushes; queued notifications
// remain pollable.
func (q *Queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
