package rma

import (
	"sync"

	"clampi/internal/datatype"
)

// Memory is the target side of one window: the regions every rank
// exposes and the locks that order access to them. The simulated
// runtime's shared window state and the daemon's served window each hold
// exactly one, and it is the only code that touches region bytes.
//
// Each region is covered by up to dataStripes read-write locks over
// power-of-two byte ranges. Readers (Read, Checksum) share a stripe;
// writers (Write, Accumulate) take it exclusively, so concurrent
// accumulates to one range stay element-wise atomic and a read never sees
// a torn write. Every method takes the stripes of one
// range in ascending order and releases them before it returns: no
// caller can hold a stripe, so the order is total and deadlock-free by
// construction.
//
// The data methods expect a range that Check accepted.
type Memory struct {
	regions [][]byte
	locks   [][]sync.RWMutex
	shift   []uint // per-target log2 stripe width
}

// dataStripes is the maximum number of lock stripes covering one target
// region. Power of two; stripe widths are powers of two so the covering
// stripes of a byte range are two shifts.
const dataStripes = 8

// minStripeShift is the log2 of the minimum stripe width (256 bytes):
// regions at or below it get a single stripe, so small windows pay no
// extra acquisitions.
const minStripeShift = 8

// NewMemory takes ownership of regions and builds their stripe locks:
// the smallest power-of-two stripe width >= 256 bytes such that at most
// dataStripes stripes cover the region. Empty regions get one stripe so
// bounds-valid zero-byte operations still have a lock to name.
func NewMemory(regions [][]byte) *Memory {
	m := &Memory{
		regions: regions,
		locks:   make([][]sync.RWMutex, len(regions)),
		shift:   make([]uint, len(regions)),
	}
	for i, reg := range regions {
		shift := uint(minStripeShift)
		for (len(reg)+(1<<shift)-1)>>shift > dataStripes {
			shift++
		}
		m.locks[i] = make([]sync.RWMutex, max(1, (len(reg)+(1<<shift)-1)>>shift))
		m.shift[i] = shift
	}
	return m
}

// Targets returns the number of regions.
func (m *Memory) Targets() int { return len(m.regions) }

// Size returns the byte length of target's region.
func (m *Memory) Size(target int) int { return len(m.regions[target]) }

// Local returns target's region itself, for its owner's local load/store
// access (MPI's window memory), which the stripes do not order.
func (m *Memory) Local(target int) []byte { return m.regions[target] }

// Check validates the range [disp, disp+size) of target's region: it
// returns ErrRankRange for a target outside the world, ErrBounds for a
// range outside the region, and nil otherwise.
func (m *Memory) Check(target, disp, size int) error {
	if target < 0 || target >= len(m.regions) {
		return ErrRankRange
	}
	if size < 0 || disp < 0 || disp > len(m.regions[target])-size {
		return ErrBounds
	}
	return nil
}

// Read appends bytes [disp, disp+size) of target's region to buf and
// returns the extended buffer; Read(dst[:0], ...) copies into dst.
func (m *Memory) Read(buf []byte, target, disp, size int) []byte {
	m.lock(target, disp, size, false)
	buf = append(buf, m.regions[target][disp:disp+size]...)
	m.unlock(target, disp, size, false)
	return buf
}

// Write copies src into target's region at disp.
func (m *Memory) Write(src []byte, target, disp int) {
	m.lock(target, disp, len(src), true)
	copy(m.regions[target][disp:], src)
	m.unlock(target, disp, len(src), true)
}

// Accumulate combines src into target's region at disp under op (see
// accumulate); dtype must be one AccumulateElemSize accepts.
func (m *Memory) Accumulate(src []byte, target, disp int, dtype datatype.Datatype, op Op) {
	m.lock(target, disp, len(src), true)
	accumulate(m.regions[target][disp:disp+len(src)], src, dtype, op)
	m.unlock(target, disp, len(src), true)
}

// Checksum returns ChecksumBytes of bytes [disp, disp+size) of target's
// region.
func (m *Memory) Checksum(target, disp, size int) uint64 {
	m.lock(target, disp, size, false)
	h := ChecksumBytes(m.regions[target][disp : disp+size])
	m.unlock(target, disp, size, false)
	return h
}

// span returns the inclusive stripe index range covering bytes
// [disp, disp+size) of target's region; size 0 degenerates to the
// single stripe holding disp.
func (m *Memory) span(target, disp, size int) (lo, hi int) {
	shift := m.shift[target]
	lo = disp >> shift
	hi = lo
	if size > 0 {
		hi = (disp + size - 1) >> shift
	}
	if n := len(m.locks[target]); hi >= n {
		hi = n - 1
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// lock takes the stripes covering [disp, disp+size) of target's region,
// shared or exclusive, in ascending index order.
func (m *Memory) lock(target, disp, size int, excl bool) {
	lo, hi := m.span(target, disp, size)
	locks := m.locks[target]
	for i := lo; i <= hi; i++ {
		if excl {
			locks[i].Lock()
		} else {
			locks[i].RLock()
		}
	}
}

// unlock releases the stripes taken by the matching lock.
func (m *Memory) unlock(target, disp, size int, excl bool) {
	lo, hi := m.span(target, disp, size)
	locks := m.locks[target]
	for i := hi; i >= lo; i-- {
		if excl {
			locks[i].Unlock()
		} else {
			locks[i].RUnlock()
		}
	}
}
