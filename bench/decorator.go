package main

import (
	"fmt"

	"clampi/internal/datatype"
	"clampi/internal/notify"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// tracedWin is the pass-through rma.Window decorator of the traced reps:
// it records one span per backend call and counts calls, bytes and
// errors at the rma boundary. The caching core discovers backend
// extensions by type assertion, so the decorator must implement exactly
// the extensions its backend has, or the traced rep would run a
// different program: trace() picks the matching concrete type and
// refuses any extension set the repo's backends do not have.
type tracedWin struct {
	rma.Window
	bw  rma.BatchWindow
	nw  rma.NotifyWindow
	lw  rma.LocalityWindow
	iw  rma.IntegrityWindow
	log *spanLog

	bytes    int64 // payload bytes moved by get/put calls
	batchOps int64 // ops carried by GetBatch calls
	errors   int64
}

// tracedDeadlineWin adds the one extension only wall-clock backends have.
type tracedDeadlineWin struct {
	*tracedWin
	dw rma.DeadlineWindow
}

func (w tracedDeadlineWin) SetOpDeadline(d simtime.Duration) { w.dw.SetOpDeadline(d) }

// trace decorates win. The returned window implements Batch, Notify,
// Locality and Integrity (what internal/mpi has), plus Deadline when win
// does (internal/wire).
func trace(win rma.Window, log *spanLog) (rma.Window, *tracedWin, error) {
	t := &tracedWin{Window: win, log: log}
	var okB, okN, okL, okI bool
	t.bw, okB = win.(rma.BatchWindow)
	t.nw, okN = win.(rma.NotifyWindow)
	t.lw, okL = win.(rma.LocalityWindow)
	t.iw, okI = win.(rma.IntegrityWindow)
	if !okB || !okN || !okL || !okI {
		return nil, nil, fmt.Errorf("bench: %T lacks an extension the tracing decorator would add (batch %v notify %v locality %v integrity %v)",
			win, okB, okN, okL, okI)
	}
	if dw, ok := win.(rma.DeadlineWindow); ok {
		return tracedDeadlineWin{t, dw}, t, nil
	}
	return t, t, nil
}

// extensions lists which optional interfaces w answers the core's type
// assertions with; a decorator is transparent when it lists the same.
func extensions(w rma.Window) (has [5]bool) {
	_, has[0] = w.(rma.BatchWindow)
	_, has[1] = w.(rma.NotifyWindow)
	_, has[2] = w.(rma.LocalityWindow)
	_, has[3] = w.(rma.IntegrityWindow)
	_, has[4] = w.(rma.DeadlineWindow)
	return has
}

func (t *tracedWin) done(i int32, err error) error {
	t.log.end(i)
	if err != nil {
		t.errors++
	}
	return err
}

// AddEpochListener wraps f in a span: the core's epoch-closure work runs
// inside the backend's completion call and would otherwise be charged to
// the rma layer.
func (t *tracedWin) AddEpochListener(f rma.EpochListener) {
	t.Window.AddEpochListener(func(epoch int64) {
		i := t.log.begin(spCoreEpoch)
		f(epoch)
		t.log.end(i)
	})
}

func (t *tracedWin) Get(dst []byte, dtype datatype.Datatype, count int, target, disp int) error {
	i := t.log.begin(spRMAGet)
	t.bytes += int64(datatype.TransferSize(dtype, count))
	return t.done(i, t.Window.Get(dst, dtype, count, target, disp))
}

func (t *tracedWin) GetBatch(ops []rma.GetOp) error {
	i := t.log.begin(spRMAGetBatch)
	t.batchOps += int64(len(ops))
	for k := range ops {
		t.bytes += int64(len(ops[k].Dst))
	}
	return t.done(i, t.bw.GetBatch(ops))
}

func (t *tracedWin) Put(src []byte, dtype datatype.Datatype, count int, target, disp int) error {
	i := t.log.begin(spRMAPut)
	t.bytes += int64(datatype.TransferSize(dtype, count))
	return t.done(i, t.Window.Put(src, dtype, count, target, disp))
}

func (t *tracedWin) PutNotify(src []byte, dtype datatype.Datatype, count int, target, disp int, tag uint32) error {
	i := t.log.begin(spRMAPutNotify)
	t.bytes += int64(datatype.TransferSize(dtype, count))
	return t.done(i, t.nw.PutNotify(src, dtype, count, target, disp, tag))
}

func (t *tracedWin) Flush(target int) error {
	i := t.log.begin(spRMAFlush)
	return t.done(i, t.Window.Flush(target))
}

func (t *tracedWin) FlushAll() error {
	i := t.log.begin(spRMAFlush)
	return t.done(i, t.Window.FlushAll())
}

func (t *tracedWin) Unlock(target int) error {
	i := t.log.begin(spRMAFlush)
	return t.done(i, t.Window.Unlock(target))
}

func (t *tracedWin) UnlockAll() error {
	i := t.log.begin(spRMAFlush)
	return t.done(i, t.Window.UnlockAll())
}

func (t *tracedWin) Fence() error {
	i := t.log.begin(spRMAFence)
	return t.done(i, t.Window.Fence())
}

func (t *tracedWin) NotifyPoll(buf []notify.Notification) (int, bool) {
	i := t.log.begin(spRMANotifyPoll)
	n, over := t.nw.NotifyPoll(buf)
	t.log.end(i)
	return n, over
}

func (t *tracedWin) Accumulate(src []byte, dtype datatype.Datatype, count int, target, disp int, op rma.Op) error {
	i := t.log.begin(spRMAOther)
	return t.done(i, t.Window.Accumulate(src, dtype, count, target, disp, op))
}

func (t *tracedWin) LockAll() error {
	i := t.log.begin(spRMAOther)
	return t.done(i, t.Window.LockAll())
}

func (t *tracedWin) NotifyEnable(capacity int) error {
	i := t.log.begin(spRMAOther)
	return t.done(i, t.nw.NotifyEnable(capacity))
}

func (t *tracedWin) Checksum(target, disp, size int) (uint64, error) {
	i := t.log.begin(spRMAOther)
	sum, err := t.iw.Checksum(target, disp, size)
	return sum, t.done(i, err)
}

// The remaining extension methods are probes cheap enough for a hit
// path to call per access (one atomic load, a table lookup); a span
// around them would cost more than they do.
func (t *tracedWin) NotifyDepth() int                           { return t.nw.NotifyDepth() }
func (t *tracedWin) NotifyWait() error                          { return t.nw.NotifyWait() }
func (t *tracedWin) NotifyLastSeq() uint64                      { return t.nw.NotifyLastSeq() }
func (t *tracedWin) DistanceClass(target int) int               { return t.lw.DistanceClass(target) }
func (t *tracedWin) FillCost(target, size int) simtime.Duration { return t.lw.FillCost(target, size) }
