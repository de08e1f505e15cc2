// Package datatype implements the subset of the MPI datatype system that
// CLaMPI relies on (paper §II-B).
//
// The paper uses the MPI Datatype Library (Ross et al.) to flatten an
// arbitrary datatype into a list of (size, offset) blocks. This package
// provides the same service: derived types are built by composing
// primitives with Contiguous, Vector, Indexed and Struct constructors, and
// Flatten produces the canonical block list used for sizing cache entries
// and for gather/scatter copies.
package datatype

import (
	"fmt"
	"sort"
)

// Block is one contiguous piece of a flattened datatype: Size bytes at
// byte offset Offset from the start of the buffer described by the type.
type Block struct {
	Offset int
	Size   int
}

// Datatype describes the memory layout of one element of a transfer.
// Implementations are immutable after construction and safe for concurrent
// use.
type Datatype interface {
	// Size returns the number of payload bytes in one element (the sum
	// of all block sizes).
	Size() int
	// Extent returns the span in bytes from the first to one past the
	// last byte touched by one element, including holes. Consecutive
	// elements of a transfer are laid out Extent() bytes apart.
	Extent() int
	// Flatten appends the element's blocks, shifted by base bytes, to
	// dst and returns the extended slice. Blocks are emitted in layout
	// order (ascending offset) with adjacent blocks coalesced.
	Flatten(dst []Block, base int) []Block
	// String returns a type signature for diagnostics.
	String() string
}

// primitive is a contiguous run of n bytes: the base case of the system.
type primitive struct {
	bytes int
	name  string
}

func (p primitive) Size() int   { return p.bytes }
func (p primitive) Extent() int { return p.bytes }
func (p primitive) Flatten(dst []Block, base int) []Block {
	if p.bytes == 0 {
		return dst
	}
	return appendCoalesced(dst, Block{Offset: base, Size: p.bytes})
}
func (p primitive) String() string { return p.name }

// Predefined primitive datatypes mirroring the MPI basic types used by the
// paper's applications.
var (
	Byte   Datatype = primitive{1, "BYTE"}
	Int32  Datatype = primitive{4, "INT32"}
	Int64  Datatype = primitive{8, "INT64"}
	Double Datatype = primitive{8, "DOUBLE"}
)

// Bytes returns a primitive type of exactly n contiguous bytes. It panics
// if n is negative; n == 0 yields an empty type.
func Bytes(n int) Datatype {
	if n < 0 {
		panic(fmt.Sprintf("datatype: negative byte count %d", n))
	}
	return primitive{n, fmt.Sprintf("BYTES(%d)", n)}
}

// contiguous is count elements of a base type laid end to end.
type contiguous struct {
	count int
	base  Datatype
}

// Contiguous builds an MPI_Type_contiguous equivalent. It panics on
// negative count.
func Contiguous(count int, base Datatype) Datatype {
	if count < 0 {
		panic(fmt.Sprintf("datatype: negative count %d", count))
	}
	return contiguous{count, base}
}

func (c contiguous) Size() int   { return c.count * c.base.Size() }
func (c contiguous) Extent() int { return c.count * c.base.Extent() }
func (c contiguous) Flatten(dst []Block, base int) []Block {
	ext := c.base.Extent()
	for i := 0; i < c.count; i++ {
		dst = c.base.Flatten(dst, base+i*ext)
	}
	return dst
}
func (c contiguous) String() string {
	return fmt.Sprintf("CONTIG(%d,%s)", c.count, c.base)
}

// vector is count blocks of blockLen base elements, strided.
type vector struct {
	count    int
	blockLen int
	stride   int // in base-extent units, like MPI_Type_vector
	base     Datatype
}

// Vector builds an MPI_Type_vector equivalent: count blocks, each of
// blockLen elements of base, with the starts of consecutive blocks
// stride base-extents apart. Panics on negative count/blockLen.
func Vector(count, blockLen, stride int, base Datatype) Datatype {
	if count < 0 || blockLen < 0 {
		panic(fmt.Sprintf("datatype: negative vector shape %d x %d", count, blockLen))
	}
	return vector{count, blockLen, stride, base}
}

func (v vector) Size() int { return v.count * v.blockLen * v.base.Size() }
func (v vector) Extent() int {
	if v.count == 0 {
		return 0
	}
	ext := v.base.Extent()
	// Extent spans from the first block to the end of the last block.
	return (v.count-1)*v.stride*ext + v.blockLen*ext
}
func (v vector) Flatten(dst []Block, base int) []Block {
	ext := v.base.Extent()
	inner := Contiguous(v.blockLen, v.base)
	for i := 0; i < v.count; i++ {
		dst = inner.Flatten(dst, base+i*v.stride*ext)
	}
	return dst
}
func (v vector) String() string {
	return fmt.Sprintf("VECTOR(%d,%d,%d,%s)", v.count, v.blockLen, v.stride, v.base)
}

// indexed is an MPI_Type_indexed equivalent: per-block lengths and
// displacements (in base-extent units).
type indexed struct {
	lengths []int
	disps   []int
	base    Datatype
}

// Indexed builds an MPI_Type_indexed equivalent. lengths and disps must
// have equal length; lengths must be non-negative.
func Indexed(lengths, disps []int, base Datatype) Datatype {
	if len(lengths) != len(disps) {
		panic(fmt.Sprintf("datatype: indexed shape mismatch %d vs %d", len(lengths), len(disps)))
	}
	for _, l := range lengths {
		if l < 0 {
			panic(fmt.Sprintf("datatype: negative indexed block length %d", l))
		}
	}
	ls := make([]int, len(lengths))
	ds := make([]int, len(disps))
	copy(ls, lengths)
	copy(ds, disps)
	return indexed{ls, ds, base}
}

func (x indexed) Size() int {
	s := 0
	for _, l := range x.lengths {
		s += l
	}
	return s * x.base.Size()
}
func (x indexed) Extent() int {
	if len(x.lengths) == 0 {
		return 0
	}
	ext := x.base.Extent()
	lo, hi := 0, 0
	for i := range x.lengths {
		start := x.disps[i] * ext
		end := start + x.lengths[i]*ext
		if i == 0 || start < lo {
			lo = start
		}
		if i == 0 || end > hi {
			hi = end
		}
	}
	if lo > 0 {
		lo = 0 // extent is measured from the type origin
	}
	return hi - lo
}
func (x indexed) Flatten(dst []Block, base int) []Block {
	ext := x.base.Extent()
	// Emit blocks in ascending offset order so the canonical form is
	// sorted even if displacements are not.
	order := make([]int, len(x.disps))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return x.disps[order[a]] < x.disps[order[b]] })
	for _, i := range order {
		inner := Contiguous(x.lengths[i], x.base)
		dst = inner.Flatten(dst, base+x.disps[i]*ext)
	}
	return dst
}
func (x indexed) String() string {
	return fmt.Sprintf("INDEXED(%d blocks,%s)", len(x.lengths), x.base)
}

// structType combines heterogeneous fields at explicit byte displacements.
type structType struct {
	fields []Datatype
	disps  []int // byte displacements
	extent int
}

// Struct builds an MPI_Type_create_struct equivalent: fields[i] is placed
// at byte displacement disps[i]. The extent is the span from offset 0 to
// the farthest byte, rounded up to 8 bytes (natural alignment).
func Struct(fields []Datatype, disps []int) Datatype {
	if len(fields) != len(disps) {
		panic(fmt.Sprintf("datatype: struct shape mismatch %d vs %d", len(fields), len(disps)))
	}
	fs := make([]Datatype, len(fields))
	ds := make([]int, len(disps))
	copy(fs, fields)
	copy(ds, disps)
	hi := 0
	for i, f := range fs {
		if end := ds[i] + f.Extent(); end > hi {
			hi = end
		}
	}
	const align = 8
	hi = (hi + align - 1) / align * align
	return structType{fs, ds, hi}
}

func (s structType) Size() int {
	t := 0
	for _, f := range s.fields {
		t += f.Size()
	}
	return t
}
func (s structType) Extent() int { return s.extent }
func (s structType) Flatten(dst []Block, base int) []Block {
	order := make([]int, len(s.fields))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s.disps[order[a]] < s.disps[order[b]] })
	for _, i := range order {
		dst = s.fields[i].Flatten(dst, base+s.disps[i])
	}
	return dst
}
func (s structType) String() string {
	return fmt.Sprintf("STRUCT(%d fields)", len(s.fields))
}

// appendCoalesced appends b to dst, merging it with the previous block if
// they are contiguous. Datatype constructors emit blocks in ascending
// offset order, so only the last block needs to be checked.
func appendCoalesced(dst []Block, b Block) []Block {
	if n := len(dst); n > 0 {
		last := &dst[n-1]
		if last.Offset+last.Size == b.Offset {
			last.Size += b.Size
			return dst
		}
	}
	return append(dst, b)
}

// TransferSize returns size(x) as defined in §II-B: the payload bytes of
// count elements of dtype.
func TransferSize(dtype Datatype, count int) int {
	if count < 0 {
		return 0
	}
	return dtype.Size() * count
}

// Span returns the extent in bytes of a transfer of count elements of
// dtype: the byte range the transfer touches in the target buffer,
// including holes. Consecutive elements sit Extent() bytes apart, so the
// span is count*Extent() — conservative (an upper bound on touched bytes)
// for sparse datatypes, exact for dense ones. Non-positive counts span
// nothing.
func Span(dtype Datatype, count int) int {
	if count <= 0 {
		return 0
	}
	return dtype.Extent() * count
}

// FlattenTransfer flattens count consecutive elements of dtype starting at
// byte offset base, producing the full block list of a transfer.
func FlattenTransfer(dtype Datatype, count, base int) []Block {
	var dst []Block
	ext := dtype.Extent()
	for i := 0; i < count; i++ {
		dst = dtype.Flatten(dst, base+i*ext)
	}
	return dst
}

// Contig reports whether a transfer of count elements of dtype is a single
// contiguous block (the common fast path in the cache copy routines).
func Contig(dtype Datatype, count int) bool {
	if dtype.Size() == dtype.Extent() {
		// Dense datatype: any count of elements coalesces into one
		// block. Answered without flattening (and thus allocation-free)
		// since this runs on the cache's partial-hit path.
		return true
	}
	blocks := FlattenTransfer(dtype, count, 0)
	return len(blocks) <= 1
}

// CopyBlocks gathers the bytes described by blocks from src into the dense
// prefix of dst, returning the number of bytes copied. It is the pack half
// of the datatype engine: cache storage always holds packed bytes.
func CopyBlocks(dst, src []byte, blocks []Block) int {
	n := 0
	for _, b := range blocks {
		n += copy(dst[n:n+b.Size], src[b.Offset:b.Offset+b.Size])
	}
	return n
}

// ScatterBlocks scatters the dense prefix of src into dst as described by
// blocks (the unpack half), returning the number of bytes written.
func ScatterBlocks(dst, src []byte, blocks []Block) int {
	n := 0
	for _, b := range blocks {
		n += copy(dst[b.Offset:b.Offset+b.Size], src[n:n+b.Size])
	}
	return n
}

// BlockSpan returns the byte span [off, off+size) covering a flattened
// block list (0, 0 when empty), the range a strided transfer touches.
func BlockSpan(blocks []Block) (off, size int) {
	if len(blocks) == 0 {
		return 0, 0
	}
	lo, hi := blocks[0].Offset, blocks[0].Offset+blocks[0].Size
	for _, b := range blocks[1:] {
		if b.Offset < lo {
			lo = b.Offset
		}
		if e := b.Offset + b.Size; e > hi {
			hi = e
		}
	}
	return lo, hi - lo
}
