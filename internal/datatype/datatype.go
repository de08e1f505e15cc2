// Package datatype names the element types of a transfer (paper §II-B).
//
// A transfer is count elements of one of Byte, Int32, Int64 or Double,
// always dense: it moves TransferSize(dtype, count) bytes from one
// contiguous target range. The paper flattens arbitrary MPI derived
// datatypes into (size, offset) blocks with the MPI Datatype Library;
// nothing here issues a strided transfer, so that flattening has no
// caller and the type set is closed to the four element types.
package datatype

// Datatype is one element type of a transfer: Byte, Int32, Int64 or
// Double. The set is closed (the fields are unexported), so every
// transfer is dense. The zero Datatype is 0 bytes wide: a transfer of it
// moves nothing.
type Datatype struct {
	size int
	name string
}

// The element types of the paper's applications, mirroring the MPI basic
// types.
var (
	Byte   = Datatype{1, "BYTE"}
	Int32  = Datatype{4, "INT32"}
	Int64  = Datatype{8, "INT64"}
	Double = Datatype{8, "DOUBLE"}
)

// Size returns the width of one element in bytes.
func (t Datatype) Size() int { return t.size }

// String returns the MPI-style name of the type, for diagnostics.
func (t Datatype) String() string { return t.name }

// TransferSize returns size(x) as defined in §II-B: the bytes of count
// elements of dtype, which is also the span of the target range the
// transfer touches. Non-positive counts size to 0.
func TransferSize(dtype Datatype, count int) int {
	if count < 0 {
		return 0
	}
	return dtype.size * count
}
