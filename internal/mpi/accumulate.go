package mpi

// MPI_Accumulate support. CLaMPI does not cache accumulates (they are
// writes), but real RMA applications mix them with gets, so the runtime
// substrate provides them. Unlike Put, concurrent same-target
// accumulates are legal in MPI-3 (they are element-wise atomic); the
// simulated runtime executes them under the world's run token in
// FidelityMeasured mode and under the target's data-path shard in
// Throughput mode.

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
	if target < 0 || target >= len(w.shared.regions) {
		return ErrRankRange
	}
	size := datatype.TransferSize(dtype, count)
	if len(src) < size {
		return ErrShortBuf
	}
	if rma.AccumulateElemSize(dtype) == 0 {
		return ErrBadAccumulate
	}
	region := w.shared.regions[target]
	if disp < 0 || disp+size > len(region) {
		return ErrBounds
	}
	w.lockRange(target, disp, size, true)
	rma.Accumulate(region[disp:disp+size], src[:size], dtype, op)
	w.unlockRange(target, disp, size, true)
	w.enqueueOp(target, size)
	return nil
}
