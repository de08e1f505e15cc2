package rma

import (
	"encoding/binary"
	"math"

	"clampi/internal/datatype"
)

// AccumulateElemSize returns the element width in bytes of a datatype
// the arithmetic accumulate operators support — Int32, Int64, Double —
// and 0 for every other datatype.
func AccumulateElemSize(dtype datatype.Datatype) int {
	switch dtype {
	case datatype.Int32:
		return 4
	case datatype.Int64, datatype.Double:
		return 8
	}
	return 0
}

// accumulate element-wise combines src into dst under op; both are packed
// little-endian arrays of dtype, which AccumulateElemSize must accept.
// It is the one arithmetic behind Memory.Accumulate, so the simulated
// window and the daemon leave the same bytes. OpReplace never reaches
// here: every backend degenerates it to Put.
//
// Integer sums wrap (two's complement). Double MAX and MIN follow IEEE
// 754-2019 maximum/minimum (Go's built-in max and min): a NaN on either
// side yields NaN, and -0 orders below +0. That rule is commutative, so the
// bytes left by concurrent accumulates do not depend on the order they
// were applied in; a compare-and-keep rule (b > a) drops an incoming NaN
// but keeps a resident one, and keeps whichever zero arrived first.
func accumulate(dst, src []byte, dtype datatype.Datatype, op Op) {
	le := binary.LittleEndian
	switch dtype {
	case datatype.Int32:
		for i := 0; i+4 <= len(src); i += 4 {
			a := int64(int32(le.Uint32(dst[i:])))
			b := int64(int32(le.Uint32(src[i:])))
			le.PutUint32(dst[i:], uint32(combineInt(a, b, op)))
		}
	case datatype.Int64:
		for i := 0; i+8 <= len(src); i += 8 {
			a := int64(le.Uint64(dst[i:]))
			b := int64(le.Uint64(src[i:]))
			le.PutUint64(dst[i:], uint64(combineInt(a, b, op)))
		}
	case datatype.Double:
		for i := 0; i+8 <= len(src); i += 8 {
			a := math.Float64frombits(le.Uint64(dst[i:]))
			b := math.Float64frombits(le.Uint64(src[i:]))
			le.PutUint64(dst[i:], math.Float64bits(combineFloat(a, b, op)))
		}
	}
}

func combineInt(a, b int64, op Op) int64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		if b > a {
			return b
		}
		return a
	case OpMin:
		if b < a {
			return b
		}
		return a
	}
	return b
}

func combineFloat(a, b float64, op Op) float64 {
	switch op {
	case OpSum:
		return a + b
	case OpMax:
		return max(a, b)
	case OpMin:
		return min(a, b)
	}
	return b
}
