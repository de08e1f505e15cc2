package mpi

// Notifiable RMA on the simulated runtime (rma.NotifyWindow, DESIGN.md
// §16): PutNotify performs an ordinary Put — same validation, same
// stripe locking, same LogGP charging — and then broadcasts a
// notification descriptor to every subscribed rank except the origin.
//
// Delivery is staged-then-settled. A broadcast does not enter the
// destination's bounded queue immediately: it is staged alongside the
// origin's collective count (its epoch generation), and the destination
// settles staged descriptors into its queue the next time it touches the
// notification surface *after a collective has ordered them* — exactly
// the "all pre-barrier pushes are visible to post-barrier polls"
// guarantee the contract promises, made precise. Settlement sorts each
// batch canonically by (generation, origin, per-origin program order),
// so delivery order — and therefore queue sequence numbers, shedding,
// and any seeded fault injection layered above the poll — is a pure
// function of the program, independent of which writer goroutine
// happened to run first inside an epoch. That determinism is what makes
// same-seed chaos replays reproduce the identical fault sequence.
//
// NotifyWait is the one eager exception: a blocked waiter is woken by a
// same-epoch push and settles it immediately (in staging order), since
// waiting for the next collective would deadlock the wake-me-on-write
// pattern. Programs that mix NotifyWait with multiple same-epoch writers
// forfeit the canonical order for those descriptors — they asked for
// raciness.
//
// The notification itself is charged as one extra issue overhead on the
// origin — the descriptor rides the same injection pipeline as the put,
// an order of magnitude cheaper than a second message — keeping the
// notify-vs-blanket comparison honest in virtual time.

import (
	"errors"
	"sync"
	"sync/atomic"

	"clampi/internal/datatype"
	"clampi/internal/notify"
	"clampi/internal/rma"
)

// ErrNotSubscribed reports a notification-queue call before NotifyEnable.
var ErrNotSubscribed = errors.New("mpi: rank not subscribed to notifications (call NotifyEnable)")

// stagedNotify is one broadcast descriptor awaiting settlement into a
// destination queue. gen is the origin's completed-collective count at
// push time: once the destination has completed a later collective, the
// SPMD contract (all ranks call the same collectives in the same order)
// proves the push happened before that rendezvous, so it is safe — and
// canonical — to deliver.
type stagedNotify struct {
	gen int
	n   notify.Notification
}

// NotifyEnable subscribes the calling rank to notifications on this
// window, creating its bounded queue (rma.NotifyWindow). Idempotent.
func (w *Win) NotifyEnable(capacity int) error {
	if w.freed {
		return ErrFreed
	}
	sh := w.shared
	sh.notifyMu.Lock()
	if sh.notifyQ == nil {
		sh.notifyQ = make([]*notify.Queue, len(sh.regions))
		sh.notifyStg = make([][]stagedNotify, len(sh.regions))
		sh.notifyStgN = make([]atomic.Int64, len(sh.regions))
		sh.notifyCond = sync.NewCond(&sh.notifyMu)
	}
	if sh.notifyQ[w.rank.id] == nil {
		sh.notifyQ[w.rank.id] = notify.NewQueue(capacity)
	}
	w.notifyQ = sh.notifyQ[w.rank.id]
	w.notifyStgN = &sh.notifyStgN[w.rank.id]
	sh.notifyMu.Unlock()
	return nil
}

// settle moves this rank's staged descriptors into its bounded queue in
// canonical order. Normally only descriptors a completed collective has
// ordered (gen < the rank's collective count) move; eager settlement
// (NotifyWait) takes everything staged. The canonical order is
// (generation, origin) with per-origin program order preserved — the
// insertion sort below is stable and staged batches are small.
func (w *Win) settle(eager bool) {
	sh := w.shared
	sh.notifyMu.Lock()
	w.settleLocked(eager)
	sh.notifyMu.Unlock()
}

func (w *Win) settleLocked(eager bool) {
	sh := w.shared
	stg := sh.notifyStg[w.rank.id]
	if len(stg) == 0 {
		return
	}
	cut := w.rank.colls
	sel := sh.notifyScr[:0]
	keep := stg[:0]
	for _, e := range stg {
		if eager || e.gen < cut {
			sel = append(sel, e)
		} else {
			keep = append(keep, e)
		}
	}
	sh.notifyStg[w.rank.id] = keep
	sh.notifyStgN[w.rank.id].Store(int64(len(keep)))
	for i := 1; i < len(sel); i++ {
		for j := i; j > 0 && (sel[j].gen < sel[j-1].gen ||
			(sel[j].gen == sel[j-1].gen && sel[j].n.Origin < sel[j-1].n.Origin)); j-- {
			sel[j], sel[j-1] = sel[j-1], sel[j]
		}
	}
	for _, e := range sel {
		w.notifyQ.Push(e.n)
	}
	sh.notifyScr = sel[:0]
}

// NotifyDepth returns the number of locally queued notifications
// (rma.NotifyWindow). The fast path — nothing staged — is a nil check
// plus two atomic loads, cheap enough for a hit path to probe every
// access; staged descriptors are settled first so the depth reflects
// everything an earlier collective has ordered.
func (w *Win) NotifyDepth() int {
	if w.notifyQ == nil {
		return 0
	}
	if w.notifyStgN.Load() > 0 {
		w.settle(false)
	}
	return w.notifyQ.Depth()
}

// NotifyLastSeq returns the highest delivery sequence number assigned
// towards this rank, zero before NotifyEnable (rma.NotifyWindow). The
// register moves at settlement, the same coherence points as delivery.
func (w *Win) NotifyLastSeq() uint64 {
	if w.notifyQ == nil {
		return 0
	}
	if w.notifyStgN.Load() > 0 {
		w.settle(false)
	}
	return w.notifyQ.LastSeq()
}

// NotifyPoll drains up to len(buf) pending notifications in delivery
// order (rma.NotifyWindow).
func (w *Win) NotifyPoll(buf []notify.Notification) (int, bool) {
	if w.notifyQ == nil {
		return 0, false
	}
	if w.notifyStgN.Load() > 0 {
		w.settle(false)
	}
	return w.notifyQ.Poll(buf)
}

// NotifyWait blocks until a notification is queued or staged (the eager
// exception to collective-ordered settlement — see the package comment)
// or the window is freed.
func (w *Win) NotifyWait() error {
	if w.freed {
		return ErrFreed
	}
	if w.notifyQ == nil {
		return ErrNotSubscribed
	}
	sh := w.shared
	sh.notifyMu.Lock()
	for {
		w.settleLocked(true)
		if w.notifyQ.Depth() > 0 {
			break
		}
		sh.notifyCond.Wait()
	}
	sh.notifyMu.Unlock()
	return nil
}

// PutNotify writes like Put and then notifies every subscribed rank
// except the origin (rma.NotifyWindow). The notification carries the
// written bytes when the transfer is contiguous and at most
// notify.DataMax long, enabling in-place patching at the readers;
// larger or strided writes notify with Data == nil and readers fall
// back to span invalidation.
func (w *Win) PutNotify(src []byte, dtype datatype.Datatype, count int, target, disp int, tag uint32) error {
	if err := w.Put(src, dtype, count, target, disp); err != nil {
		return err
	}
	size := datatype.TransferSize(dtype, count)
	span, spanLen := disp, size
	var data []byte
	if dtype.Size() == dtype.Extent() {
		if size > 0 && size <= notify.DataMax {
			data = append([]byte(nil), src[:size]...)
		}
	} else {
		span, spanLen = blockSpan(datatype.FlattenTransfer(dtype, count, disp))
	}
	// The descriptor rides the injection pipeline: one extra issue
	// overhead on the origin, no second network message.
	w.rank.clock.Busy(w.rank.Model().IssueOverhead(w.rank.Distance(target)))
	w.broadcastNotification(notify.Notification{
		Origin: w.rank.id,
		Target: target,
		Disp:   span,
		Len:    spanLen,
		Tag:    tag,
		Data:   data,
	})
	return nil
}

// broadcastNotification stages n for every subscribed rank except the
// origin's own, tagged with the origin's current epoch generation, and
// wakes any blocked NotifyWait. Queue sheds (bounded capacity) happen at
// settlement and surface as overflow flags at the affected reader, never
// as an error at the writer — matching a hardware notification FIFO.
func (w *Win) broadcastNotification(n notify.Notification) {
	sh := w.shared
	gen := w.rank.colls
	sh.notifyMu.Lock()
	for rank, q := range sh.notifyQ {
		if q == nil || rank == n.Origin {
			continue
		}
		sh.notifyStg[rank] = append(sh.notifyStg[rank], stagedNotify{gen: gen, n: n})
		sh.notifyStgN[rank].Add(1)
	}
	if sh.notifyCond != nil {
		sh.notifyCond.Broadcast()
	}
	sh.notifyMu.Unlock()
}

// Compile-time check: the simulated runtime is notification-capable.
var _ rma.NotifyWindow = (*Win)(nil)
