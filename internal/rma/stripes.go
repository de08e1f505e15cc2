package rma

import "sync"

// Stripes is the data-path lock set of one window host — the simulated
// runtime's shared window state and the daemon's served window both hold
// exactly one. Each target region is covered by up to dataStripes
// read-write locks over power-of-two byte ranges: readers (Get, GetBatch,
// Checksum) of disjoint stripes — and of the same stripe — proceed
// concurrently, while writers (Put, Accumulate) take their covered
// stripes exclusively, so concurrent accumulates to one range stay
// element-wise atomic and a get never observes a torn concurrent put. A
// multi-stripe operation acquires its stripes in ascending index order,
// which makes the acquisition order total and the scheme deadlock-free.
type Stripes struct {
	locks [][]sync.RWMutex // clampi:lockrank stripe
	shift []uint           // per-target log2 stripe width
}

// dataStripes is the maximum number of lock stripes covering one target
// region. Power of two; stripe widths are powers of two so the covering
// stripes of a byte range are two shifts.
const dataStripes = 8

// minStripeShift is the log2 of the minimum stripe width (256 bytes):
// regions at or below it get a single stripe, so small windows pay no
// extra acquisitions.
const minStripeShift = 8

// NewStripes builds the per-target stripe locks: the smallest
// power-of-two stripe width >= 256 bytes such that at most dataStripes
// stripes cover the region. Empty regions get one stripe so bounds-valid
// zero-byte operations still have a lock to name.
func NewStripes(regions [][]byte) *Stripes {
	s := &Stripes{
		locks: make([][]sync.RWMutex, len(regions)),
		shift: make([]uint, len(regions)),
	}
	for i, reg := range regions {
		shift := uint(minStripeShift)
		for (len(reg)+(1<<shift)-1)>>shift > dataStripes {
			shift++
		}
		n := (len(reg) + (1 << shift) - 1) >> shift
		if n < 1 {
			n = 1
		}
		s.locks[i] = make([]sync.RWMutex, n)
		s.shift[i] = shift
	}
	return s
}

// span returns the inclusive stripe index range covering bytes
// [disp, disp+size) of target's region. Callers validate bounds first;
// size 0 degenerates to the single stripe holding disp.
func (s *Stripes) span(target, disp, size int) (lo, hi int) {
	shift := s.shift[target]
	lo = disp >> shift
	hi = lo
	if size > 0 {
		hi = (disp + size - 1) >> shift
	}
	if n := len(s.locks[target]); hi >= n {
		hi = n - 1
	}
	if lo > hi {
		lo = hi
	}
	return lo, hi
}

// Lock acquires the stripes covering the validated range
// [disp, disp+size) of target's region — shared for readers, exclusive
// for writers — in ascending index order.
func (s *Stripes) Lock(target, disp, size int, excl bool) {
	lo, hi := s.span(target, disp, size)
	locks := s.locks[target]
	for i := lo; i <= hi; i++ {
		if excl {
			locks[i].Lock()
		} else {
			locks[i].RLock()
		}
	}
}

// Unlock releases the stripes taken by the matching Lock.
func (s *Stripes) Unlock(target, disp, size int, excl bool) {
	lo, hi := s.span(target, disp, size)
	locks := s.locks[target]
	for i := hi; i >= lo; i-- {
		if excl {
			locks[i].Unlock()
		} else {
			locks[i].RUnlock()
		}
	}
}
