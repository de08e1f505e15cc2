package rma

import (
	"clampi/internal/datatype"
	"clampi/internal/notify"
)

// NotifyWindow is the optional notifiable-RMA extension of Window (the
// UNR model, DESIGN.md §16): PutNotify is a Put that additionally
// enqueues a notification — origin, target, span, tag, and the written
// bytes when small — at every subscribed rank of the window, so caching
// readers can invalidate (or patch) exactly the spans a writer changed
// instead of blanket-invalidating at epoch closure.
//
// Layers probe for it with a type assertion, exactly like BatchWindow,
// and fall back to epoch-granular coherence when the backend cannot
// deliver notifications. Delivery is bounded and lossy-with-a-flag:
// each subscriber owns a bounded notify.Queue; a shed or lost
// notification surfaces as an overflow flag or a sequence gap, which
// consumers must treat as "invalidate everything" — coherence degrades
// to the blanket behaviour, it is never silently lost.
//
// Like every Window method, the methods below are origin-side state and
// must be called from the owning rank's goroutine. Notification
// *delivery* is concurrent by nature (remote writers push into this
// rank's queue at any time); the queue absorbs that.
type NotifyWindow interface {
	Window
	// PutNotify writes count elements of dtype from src into
	// target's region at byte displacement disp — exactly like Put —
	// and enqueues a notification carrying tag at every subscribed
	// rank of the window except the origin itself.
	PutNotify(src []byte, dtype datatype.Datatype, count int, target, disp int, tag uint32) error
	// NotifyEnable subscribes the calling rank to notifications on
	// this window, creating its bounded queue (notify.DefaultCapacity
	// when capacity <= 0). Calling it again returns the same queue.
	NotifyEnable(capacity int) error
	// NotifyDepth returns the number of locally queued notifications:
	// one atomic load, cheap enough for a hit path to probe every
	// access. Zero before NotifyEnable.
	NotifyDepth() int
	// NotifyPoll drains up to len(buf) pending notifications in
	// delivery order and reports how many were written plus the
	// overflow flag (a shed delivery since the previous poll — the
	// consumer must invalidate conservatively). Backends that receive
	// notifications over a real transport pump it here, so a poll may
	// cost a round trip even when it returns zero.
	NotifyPoll(buf []notify.Notification) (n int, overflowed bool)
	// NotifyWait blocks until at least one notification is queued or
	// the window is freed (notify.ErrClosed).
	NotifyWait() error
	// NotifyLastSeq returns the highest delivery sequence number the
	// transport has assigned towards this rank (0 before the first
	// delivery) — the delivered-count register of the UNR model. Lost
	// and shed notifications still consume sequence numbers, so a
	// consumer that drained the queue empty yet trails this value has
	// provably missed deliveries: tail losses, which no in-queue gap
	// can reveal, are detected by comparing against it.
	NotifyLastSeq() uint64
}
