package mpi

// MPI_Accumulate support. CLaMPI does not cache accumulates (they are
// writes), but real RMA applications mix them with gets, so the runtime
// substrate provides them. Unlike Put, concurrent same-target
// accumulates are legal in MPI-3 (they are element-wise atomic); the
// window memory applies each under the exclusive stripe locks of the
// target range (rma.Memory.Accumulate).

import (
	"errors"

	"clampi/internal/datatype"
	"clampi/internal/rma"
)

// Op is an accumulate reduction operator, aliased from the transport
// layer so callers can use either package's constants.
type Op = rma.Op

const (
	// OpReplace overwrites the target elements (MPI_REPLACE).
	OpReplace = rma.OpReplace
	// OpSum adds to the target elements (MPI_SUM).
	OpSum = rma.OpSum
	// OpMax keeps the element-wise maximum (MPI_MAX).
	OpMax = rma.OpMax
	// OpMin keeps the element-wise minimum (MPI_MIN).
	OpMin = rma.OpMin
)

// ErrBadAccumulate reports an unsupported datatype/op combination.
var ErrBadAccumulate = errors.New("mpi: accumulate requires a primitive arithmetic datatype")

// Accumulate combines count elements of dtype from src (packed) into
// target's region at byte displacement disp using op (MPI_Accumulate).
// Arithmetic ops support Int32, Int64 and Double; OpReplace additionally
// supports any datatype (it degenerates to Put).
func (w *Win) Accumulate(src []byte, dtype datatype.Datatype, count int, target, disp int, op Op) error {
	if op == OpReplace {
		return w.Put(src, dtype, count, target, disp)
	}
	if w.freed {
		return ErrFreed
	}
	if !w.inEpoch() {
		return ErrNoEpoch
	}
	if target < 0 || target >= w.shared.mem.Targets() {
		return ErrRankRange
	}
	size := datatype.TransferSize(dtype, count)
	if len(src) < size {
		return ErrShortBuf
	}
	if rma.AccumulateElemSize(dtype) == 0 {
		return ErrBadAccumulate
	}
	if err := w.shared.mem.Check(target, disp, size); err != nil {
		return err
	}
	w.shared.mem.Accumulate(src[:size], target, disp, dtype, op)
	w.enqueueOp(target, size)
	return nil
}
