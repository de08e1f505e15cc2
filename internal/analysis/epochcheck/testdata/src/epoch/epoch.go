// Corpus for epochcheck: reads of RMA destination buffers before epoch
// closure, and window data access after the epoch was closed.
package epoch

import (
	"clampi/internal/datatype"
	"clampi/internal/rma"
)

// readBeforeFlush reads the Get destination before any completion call.
func readBeforeFlush(w rma.Window) byte {
	dst := make([]byte, 64)
	_ = w.Get(dst, datatype.Byte, 64, 1, 0)
	return dst[0] // want `buffer "dst" is read before the rma.Window.Get completes`
}

// readAfterFlush is the sanctioned pattern: complete, then read.
func readAfterFlush(w rma.Window) byte {
	dst := make([]byte, 64)
	_ = w.Get(dst, datatype.Byte, 64, 1, 0)
	_ = w.Flush(1)
	return dst[0]
}

// readAfterUnlock completes through Unlock instead of Flush.
func readAfterUnlock(w rma.Window) byte {
	dst := make([]byte, 64)
	_ = w.Lock(1)
	_ = w.Get(dst, datatype.Byte, 64, 1, 0)
	_ = w.Unlock(1)
	return dst[0]
}

// lenIsNotARead: the slice header is defined even mid-epoch.
func lenIsNotARead(w rma.Window) int {
	dst := make([]byte, 64)
	_ = w.Get(dst, datatype.Byte, 64, 1, 0)
	n := len(dst)
	_ = w.Flush(1)
	return n
}

// passedToCall leaks the undefined buffer into another function.
func passedToCall(w rma.Window) {
	dst := make([]byte, 64)
	_ = w.Get(dst, datatype.Byte, 64, 1, 0)
	consume(dst) // want `buffer "dst" is read before the rma.Window.Get completes`
	_ = w.FlushAll()
}

func consume([]byte) {}

// reassignedBufferIsFresh: after reassignment the variable no longer
// aliases the in-flight transfer.
func reassignedBufferIsFresh(w rma.Window) byte {
	dst := make([]byte, 64)
	_ = w.Get(dst, datatype.Byte, 64, 1, 0)
	dst = make([]byte, 8)
	return dst[0]
}

// getAfterUnlock moves data outside any lock epoch.
func getAfterUnlock(w rma.Window) {
	dst := make([]byte, 64)
	_ = w.Lock(1)
	_ = w.Get(dst, datatype.Byte, 64, 1, 0)
	_ = w.Unlock(1)
	_ = w.Get(dst, datatype.Byte, 64, 1, 0) // want `rma\.Window\.Get after the epoch was closed`
	_ = w.Flush(1)
}

// putAfterUnlockAll is the same hazard through the bulk unlock.
func putAfterUnlockAll(w rma.Window, src []byte) {
	_ = w.LockAll()
	_ = w.Put(src, datatype.Byte, len(src), 1, 0)
	_ = w.UnlockAll()
	_ = w.Put(src, datatype.Byte, len(src), 1, 0) // want `rma\.Window\.Put after the epoch was closed`
}

// relockReopens: a new Lock after Unlock makes access legal again.
func relockReopens(w rma.Window, src []byte) {
	_ = w.Lock(1)
	_ = w.Put(src, datatype.Byte, len(src), 1, 0)
	_ = w.Unlock(1)
	_ = w.Lock(1)
	_ = w.Put(src, datatype.Byte, len(src), 1, 0)
	_ = w.Unlock(1)
}

// deferredUnlockHolds: a deferred unlock closes the epoch at return,
// after every lexical access.
func deferredUnlockHolds(w rma.Window, src []byte) {
	_ = w.LockAll()
	defer func() { _ = w.UnlockAll() }()
	_ = w.Put(src, datatype.Byte, len(src), 1, 0)
}

// fenceReopens: Fence closes the previous epoch and opens the next.
func fenceReopens(w rma.Window, src []byte) {
	_ = w.Fence()
	_ = w.Put(src, datatype.Byte, len(src), 1, 0)
	_ = w.Fence()
}

// batchReadBeforeFlush reads a GetBatch destination before completion:
// GetOp.Dst buffers follow the same epoch contract as Get destinations.
func batchReadBeforeFlush(w rma.BatchWindow) byte {
	dst := make([]byte, 64)
	ops := []rma.GetOp{{Dst: dst, Target: 1, Disp: 0}}
	_ = w.GetBatch(ops)
	return dst[0] // want `buffer "dst" is read before the rma.BatchWindow.GetBatch completes`
}

// batchReadAfterFlush is the sanctioned pattern, ops literal inlined.
func batchReadAfterFlush(w rma.BatchWindow) byte {
	dst := make([]byte, 64)
	_ = w.GetBatch([]rma.GetOp{{Dst: dst, Target: 1, Disp: 0}})
	_ = w.FlushAll()
	return dst[0]
}

// batchPositionalDst stages through a positional GetOp literal.
func batchPositionalDst(w rma.BatchWindow) byte {
	dst := make([]byte, 64)
	_ = w.GetBatch([]rma.GetOp{{dst, 1, 0}})
	b := dst[0] // want `buffer "dst" is read before the rma.BatchWindow.GetBatch completes`
	_ = w.FlushAll()
	return b
}

// batchStagedNotIssued: naming a buffer in a GetOp literal alone leaves
// it defined — only the GetBatch call makes it pending.
func batchStagedNotIssued(w rma.BatchWindow) byte {
	dst := make([]byte, 64)
	ops := []rma.GetOp{{Dst: dst, Target: 1, Disp: 0}}
	_ = ops
	return dst[0]
}

// batchAfterUnlock: GetBatch is data movement and must not follow an
// epoch closure without a new lock.
func batchAfterUnlock(w rma.BatchWindow) {
	dst := make([]byte, 64)
	_ = w.LockAll()
	_ = w.GetBatch([]rma.GetOp{{Dst: dst, Target: 1, Disp: 0}})
	_ = w.UnlockAll()
	_ = w.GetBatch([]rma.GetOp{{Dst: dst, Target: 1, Disp: 0}}) // want `rma\.Window\.GetBatch after the epoch was closed`
	_ = w.FlushAll()
}

// tailCallIssueEscapes: a Get issued in a return statement leaves with
// the transfer in flight — the caller owns its completion, and the
// fall-through branch never observes it. This is the direct fast path
// of every transport middleware (`if bypass { return w.Get(...) }`).
func tailCallIssueEscapes(w rma.Window, dst []byte, direct bool) error {
	if direct {
		return w.Get(dst, datatype.Byte, len(dst), 1, 0)
	}
	consume(dst)
	return w.FlushAll()
}

// errorCheckedIssueStaysCaught: an early return on the error path does
// not complete the success path — the issue is outside the return
// expression, so the pre-completion read is still flagged.
func errorCheckedIssueStaysCaught(w rma.Window) byte {
	dst := make([]byte, 64)
	if err := w.Get(dst, datatype.Byte, 64, 1, 0); err != nil {
		return 0
	}
	return dst[0] // want `buffer "dst" is read before the rma.Window.Get completes`
}

// annotatedPreCompletionRead is the sanctioned override for transport
// middleware that must touch payload bytes at issue time (the simulated
// transport materializes them there), stated with a reason.
func annotatedPreCompletionRead(w rma.Window) byte {
	dst := make([]byte, 64)
	_ = w.Get(dst, datatype.Byte, 64, 1, 0)
	b := dst[0] //clampi:epoch middleware corpus: injectors touch payloads at issue time
	_ = w.FlushAll()
	return b
}

// putNotifyAfterUnlock: PutNotify is data movement exactly like Put —
// notified writes after the epoch closed are flagged, and the
// rma.NotifyWindow receiver type is recognized as a window.
func putNotifyAfterUnlock(w rma.NotifyWindow) {
	src := make([]byte, 64)
	_ = w.LockAll()
	_ = w.PutNotify(src, datatype.Byte, 64, 1, 0, 7)
	_ = w.UnlockAll()
	_ = w.PutNotify(src, datatype.Byte, 64, 1, 0, 7) // want `rma\.Window\.PutNotify after the epoch was closed`
	_ = w.FlushAll()
}

// putNotifyInEpoch is the sanctioned notified-write pattern: publish
// inside the epoch, close, reopen before the next round.
func putNotifyInEpoch(w rma.NotifyWindow) {
	src := make([]byte, 64)
	_ = w.LockAll()
	_ = w.PutNotify(src, datatype.Byte, 64, 1, 0, 7)
	_ = w.UnlockAll()
	_ = w.LockAll()
	_ = w.PutNotify(src, datatype.Byte, 64, 1, 0, 8)
	_ = w.UnlockAll()
}

// getViaNotifyWindowTracked: reads through a NotifyWindow-typed handle
// carry the same pre-completion contract as through rma.Window.
func getViaNotifyWindowTracked(w rma.NotifyWindow) byte {
	dst := make([]byte, 64)
	_ = w.Get(dst, datatype.Byte, 64, 1, 0)
	return dst[0] // want `buffer "dst" is read before the rma.Window.Get completes`
}
