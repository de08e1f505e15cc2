package core

// FuzzNotifyCoherence drives a random script of notified writes, cached
// reads and epoch fences through a 2-rank world and checks every read
// against a model region maintained in plain Go: a read must return
// exactly the bytes the model holds at read time — the fully old or
// fully new value of every written span, never a torn mix and never a
// stale span whose notification was already drained. The tiny
// notification queue makes overflow (and its conservative
// full-invalidation fallback) a routinely fuzzed path rather than a
// corner case. The reader's cache passes CheckIntegrity after every read
// and every epoch closure, so each coherence transition is checked
// against the index's slot records too.

import (
	"bytes"
	"testing"

	"clampi/internal/datatype"
	"clampi/internal/mpi"
)

const (
	fuzzSlots    = 8
	fuzzSlotSize = 32
	fuzzRegion   = fuzzSlots * fuzzSlotSize
	fuzzMaxOps   = 64
)

// fuzzOp is one decoded script step.
type fuzzOp struct {
	kind int // 0 full-slot write, 1 read, 2 fence, 3 sub-span write, 4 straddling read
	slot int
	val  byte
	off  int // sub-span writes: offset within the slot
	n    int // sub-span writes: span length
}

// decodeFuzzScript turns raw fuzz input into a bounded op script, one op
// per input byte pair. Both ranks decode the same input, so their
// collective schedules agree by construction. A straddling read covers
// the second half of its slot and the first half of the next, so its
// entry overlaps the entries of two full-slot reads.
func decodeFuzzScript(data []byte) []fuzzOp {
	var ops []fuzzOp
	for i := 0; i+1 < len(data) && len(ops) < fuzzMaxOps; i += 2 {
		cmd, arg := data[i], data[i+1]
		op := fuzzOp{
			kind: int(cmd) % 5,
			slot: int(arg) % fuzzSlots,
			val:  byte(1 + (len(ops)*37)%250),
		}
		switch op.kind {
		case 3:
			op.off = (int(arg) * 7) % (fuzzSlotSize - 8)
			op.n = 8
		case 4:
			op.slot = int(arg) % (fuzzSlots - 1)
			op.off = fuzzSlotSize / 2
		}
		ops = append(ops, op)
	}
	return ops
}

// readSpan is the first byte a read op covers; every read is one slot long.
func (op fuzzOp) readSpan() int { return op.slot*fuzzSlotSize + op.off }

func FuzzNotifyCoherence(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0})                         // write slot 0, read slot 0
	f.Add([]byte{0, 1, 2, 0, 1, 1})                   // write, fence, read
	f.Add([]byte{0, 2, 0, 2, 0, 2, 1, 2})             // repeated same-slot writes
	f.Add([]byte{3, 4, 1, 4, 2, 0, 3, 4, 1, 4})       // sub-span writes
	f.Add([]byte{0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5}) // queue pressure
	// Neighbours cached around the written slot, so the range query scans
	// past entries it must keep; then further rounds after the ordered
	// view exists, refilling and re-invalidating it.
	f.Add([]byte{1, 0, 1, 1, 1, 2, 2, 0, 3, 1, 1, 0, 1, 1, 1, 2, 2, 0, 0, 1, 3, 2, 1, 1, 1, 2})
	f.Add([]byte{3, 3, 2, 0, 1, 3, 1, 4, 2, 0, 3, 4, 3, 3, 1, 3, 1, 4, 2, 0, 1, 3, 1, 4})
	// Overlapping entries: slot 0 and the straddling [16, 48) are cached,
	// then a notification carrying all of slot 0 patches its entry; the
	// straddling entry holds bytes 16-31 too and must not keep them.
	f.Add([]byte{1, 0, 4, 0, 2, 0, 0, 0, 4, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		ops := decodeFuzzScript(data)
		if len(ops) == 0 {
			return
		}
		err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
			region := make([]byte, fuzzRegion)
			if r.ID() == 1 {
				for i := range region {
					region[i] = pattern(i)
				}
			}
			win := r.WinCreate(region, nil)
			defer win.Free()
			var c *Cache
			var fnErr error
			if r.ID() == 0 {
				// A deliberately tiny queue: long write bursts overflow it
				// and must fall back to full invalidation.
				c, fnErr = New(win, Params{NotifyTargeted: true, NotifyQueueCap: 8})
				if fnErr != nil {
					return fnErr
				}
			}
			if fnErr = win.LockAll(); fnErr != nil {
				return fnErr
			}
			// model mirrors what rank 1's region holds after each round's
			// writes; reads are checked against it on rank 0.
			model := make([]byte, fuzzRegion)
			for i := range model {
				model[i] = pattern(i)
			}
			type readCheck struct {
				disp int
				got  []byte
				want []byte
			}
			var checks []readCheck
			// Rounds are fence-delimited. Within a round every write
			// happens-before every read (barrier between), so at read time
			// the model is exact: notifications for all of the round's
			// writes are already queued at the reader.
			next := 0
			for next < len(ops) {
				end := next
				for end < len(ops) && ops[end].kind != 2 {
					end++
				}
				round := ops[next:end]
				if end < len(ops) {
					end++ // consume the fence op
				}
				for _, op := range round { // writes: rank 1; model: both
					switch op.kind {
					case 0:
						lo := op.slot * fuzzSlotSize
						for i := 0; i < fuzzSlotSize; i++ {
							model[lo+i] = op.val
						}
						if r.ID() == 1 && fnErr == nil {
							fnErr = win.PutNotify(model[lo:lo+fuzzSlotSize], datatype.Byte,
								fuzzSlotSize, 1, lo, uint32(op.slot))
						}
					case 3:
						lo := op.slot*fuzzSlotSize + op.off
						for i := 0; i < op.n; i++ {
							model[lo+i] = op.val
						}
						if r.ID() == 1 && fnErr == nil {
							fnErr = win.PutNotify(model[lo:lo+op.n], datatype.Byte,
								op.n, 1, lo, uint32(op.slot))
						}
					}
				}
				r.Barrier() // writes (and their notifications) delivered
				if r.ID() == 0 && fnErr == nil {
					for _, op := range round {
						if op.kind != 1 && op.kind != 4 {
							continue
						}
						lo := op.readSpan()
						got := make([]byte, fuzzSlotSize)
						if fnErr = c.Get(got, datatype.Byte, fuzzSlotSize, 1, lo); fnErr != nil {
							break
						}
						if fnErr = c.CheckIntegrity(); fnErr != nil {
							break
						}
						checks = append(checks, readCheck{
							disp: lo,
							got:  got,
							want: append([]byte(nil), model[lo:lo+fuzzSlotSize]...),
						})
					}
				}
				r.Barrier() // reads issued
				if fnErr == nil {
					// Epoch closure: pending waiter copies land, buffers
					// become contractually valid.
					fnErr = win.FlushAll()
				}
				if r.ID() == 0 && fnErr == nil {
					fnErr = c.CheckIntegrity()
					for _, ck := range checks {
						if !bytes.Equal(ck.got, ck.want) {
							t.Errorf("read at disp %d: %v, model %v (torn or stale serve)",
								ck.disp, ck.got, ck.want)
						}
					}
					checks = checks[:0]
				}
				next = end
			}
			if err := win.UnlockAll(); fnErr == nil {
				fnErr = err
			}
			r.Barrier()
			return fnErr
		})
		if err != nil {
			t.Fatal(err)
		}
	})
}
