package wire

// Notifiable RMA over the socket transport (rma.NotifyWindow, DESIGN.md
// §16). The client's connection pool hands each RPC a private
// connection, so server pushes cannot ride the request/response streams:
// NotifyEnable dials one more connection and dedicates it with
// OpSubscribe — the server thereafter pushes an OpNotify frame into it
// for every remote PutNotify on the window.
//
// Delivery into the local queue is pull-based and deterministic: a pump
// writes an OpFlush marker on the subscribe connection and reads frames
// until the marker's ack. Frames on one connection are FIFO, so every
// push the server wrote before reading the marker — in particular every
// push for a write whose PutNotify ack preceded the last barrier — is
// enqueued when the pump returns. Fence pumps after its barrier round
// trip, giving the same "all pre-fence notifications are visible after
// Fence" guarantee the simulated backend provides for free.
//
// A pump failure (timeout, damaged frame, dead daemon) poisons the
// subscribe connection and latches the overflow flag: every subsequent
// poll reports overflowed=true, and the caching layer degrades to
// blanket invalidation. Coherence weakens to the epoch-granular
// behaviour, it is never silently lost.

import (
	"errors"
	"fmt"

	"clampi/internal/datatype"
	"clampi/internal/notify"
	"clampi/internal/rma"
)

// ErrNotSubscribed reports a notification call before NotifyEnable.
var ErrNotSubscribed = errors.New("wire: rank not subscribed to notifications (call NotifyEnable)")

// NotifyEnable dials the dedicated subscribe connection, registers it
// with the server, and creates the local bounded queue
// (rma.NotifyWindow). Idempotent.
func (w *Window) NotifyEnable(capacity int) error {
	if w.freed {
		return rma.ErrFreed
	}
	if w.nq != nil {
		return nil
	}
	cc, err := w.cl.dialConn()
	if err != nil {
		return err
	}
	if _, err := w.cl.exchange(cc, OpSubscribe, nil, w.cl.cfg.DialTimeout, nil); err != nil {
		cc.c.Close()
		return err
	}
	w.nc = cc
	w.nq = notify.NewQueue(capacity)
	return nil
}

// NotifyDepth returns the number of locally queued notifications: one
// atomic load, no round trip (rma.NotifyWindow). Pushes still sitting in
// the subscribe socket are not counted until a pump (Fence, NotifyPoll)
// drains them — the epoch boundary is the coherence point.
func (w *Window) NotifyDepth() int {
	if w.nq == nil {
		return 0
	}
	return w.nq.Depth()
}

// NotifyLastSeq returns the highest delivery sequence number assigned
// by the local queue (rma.NotifyWindow). No pump: the register moves at
// the same coherence points (Fence, NotifyPoll) as delivery itself, so
// it is always consistent with what Poll has had the chance to return.
func (w *Window) NotifyLastSeq() uint64 {
	if w.nq == nil {
		return 0
	}
	return w.nq.LastSeq()
}

// NotifyPoll pumps the subscribe connection, then drains up to len(buf)
// notifications in delivery order (rma.NotifyWindow). A pump failure is
// reported as overflowed=true: the consumer must invalidate
// conservatively, exactly as after a queue shed.
func (w *Window) NotifyPoll(buf []notify.Notification) (int, bool) {
	if w.nq == nil {
		return 0, false
	}
	w.pumpNotify()
	n, ov := w.nq.Poll(buf)
	if w.notifyBad {
		ov = true
	}
	return n, ov
}

// NotifyWait blocks until a notification is queued or the window is
// freed (rma.NotifyWindow). The blocking read's wall duration is charged
// to the virtual clock like every wire wait.
func (w *Window) NotifyWait() error {
	if w.freed {
		return rma.ErrFreed
	}
	if w.nq == nil {
		return ErrNotSubscribed
	}
	w.pumpNotify()
	if w.nq.Depth() > 0 {
		return nil
	}
	if w.nc == nil {
		return fmt.Errorf("%w: notify connection lost", rma.ErrTransient)
	}
	return w.notifyIO(w.readPush)
}

// readPush blocks until the server pushes the next frame into the
// subscribe connection — outside a pump only an OpNotify may arrive —
// and queues it.
func (w *Window) readPush() error {
	w.nc.setDeadline(0) // blocking on the next push is the point of NotifyWait
	f, err := w.nc.fr.next()
	if err != nil {
		return classify(err)
	}
	if f.Op != OpNotify {
		return fmt.Errorf("%w: %s frame on the subscribe connection outside a pump", ErrProto, OpName(f.Op))
	}
	p, err := decodeNotify(f.Payload)
	if err != nil {
		return err
	}
	w.enqueueNotify(p)
	return nil
}

// PutNotify writes like Put and asks the server to push a notification
// descriptor to every subscribed rank except this one
// (rma.NotifyWindow), in one round trip.
func (w *Window) PutNotify(src []byte, dtype datatype.Datatype, count int, target, disp int, tag uint32) error {
	return w.transfer(OpPutNotify, src, dtype, count, target, disp, tag)
}

func (w *Window) putNotifyRange(src []byte, target, disp int, tag uint32) error {
	req := putNotifyReq{Target: int32(target), Disp: int64(disp), Tag: tag, Data: src}
	return w.rpc(OpPutNotify, func(b []byte) []byte { return appendPutNotify(b, req) }, w.opDeadline, nil)
}

// pumpNotify drains every push the server has already written into the
// subscribe connection: it sends an OpFlush marker and reads frames
// until the marker's ack (per-connection FIFO makes that exhaustive).
func (w *Window) pumpNotify() {
	if w.nq != nil && w.nc != nil && !w.freed {
		_ = w.notifyIO(w.pumpOnce) // a failure is latched by poisonNotify
	}
}

// notifyIO runs one exchange on the subscribe connection. Its wall
// duration is charged to the virtual clock like any RPC; a failure
// poisons the connection and latches the overflow flag.
func (w *Window) notifyIO(exchange func() error) error {
	var err error
	w.ep.clock.Charge(func() { err = exchange() })
	if err != nil {
		w.poisonNotify()
	}
	return err
}

func (w *Window) pumpOnce() error {
	seq := w.cl.seq.Add(1)
	w.nc.setDeadline(w.opDeadline.Real())
	if err := w.nc.send(OpFlush, seq, nil); err != nil {
		return classify(err)
	}
	for {
		f, err := w.nc.fr.next()
		if err != nil {
			return classify(err)
		}
		switch f.Op {
		case OpNotify:
			p, derr := decodeNotify(f.Payload)
			if derr != nil {
				return derr
			}
			w.enqueueNotify(p)
		case OpAck:
			if f.Seq != seq {
				return fmt.Errorf("%w: pump ack seq %d (want %d)", ErrProto, f.Seq, seq)
			}
			return nil
		case OpError:
			return errorFromFrame(f.Payload)
		default:
			return fmt.Errorf("%w: %s frame on the subscribe connection", ErrProto, OpName(f.Op))
		}
	}
}

// enqueueNotify converts one decoded push into a queue entry, copying
// the data out of the frame reader's reused buffer. A shed (bounded
// queue) surfaces as the overflow flag at the next poll.
func (w *Window) enqueueNotify(p notifyPayload) {
	n := notify.Notification{
		Origin: int(p.Origin),
		Target: int(p.Target),
		Disp:   int(p.Disp),
		Len:    int(p.Len),
		Tag:    p.Tag,
	}
	if p.HasData {
		n.Data = append([]byte(nil), p.Data...)
	}
	w.nq.Push(n)
}

// poisonNotify retires a subscribe connection that produced a transport
// failure: the push stream can no longer be trusted to be aligned. The
// latched notifyBad flag keeps every later poll reporting overflow, so
// consumers stay on blanket invalidation.
func (w *Window) poisonNotify() {
	w.notifyBad = true
	if w.nc != nil {
		w.nc.c.Close()
		w.nc = nil
	}
}

// Compile-time check: the wire client is notification-capable.
var _ rma.NotifyWindow = (*Window)(nil)
