// Corpus for atomicfield: plain access to fields annotated
// // clampi:atomic.
package atomicf

import "sync/atomic"

// stats mixes annotated lock-free fields with an unannotated one.
type stats struct {
	hits    atomic.Int64    // clampi:atomic
	misses  uint64          // clampi:atomic
	buckets [4]atomic.Int64 // clampi:atomic
	name    string          // not annotated: plain access stays legal
}

// atomicAccess exercises every sanctioned form.
func atomicAccess(s *stats) int64 {
	s.hits.Add(1)
	atomic.AddUint64(&s.misses, 1)
	s.buckets[2].Store(7)
	var sum int64
	for i := range s.buckets {
		sum += s.buckets[i].Load()
	}
	_ = len(s.buckets)
	return sum + s.hits.Load() + int64(atomic.LoadUint64(&s.misses))
}

// plainReads load annotated cells without atomics.
func plainReads(s *stats) uint64 {
	return s.misses // want `field misses is marked clampi:atomic`
}

// plainWrites store without atomics.
func plainWrites(s *stats) {
	s.misses = 0 // want `field misses is marked clampi:atomic`
	s.misses++   // want `field misses is marked clampi:atomic`
}

// copyingAtomicValue copies the cell, losing atomicity (and tripping
// go vet's copylocks as well).
func copyingAtomicValue(s *stats) atomic.Int64 {
	return s.hits // want `field hits is marked clampi:atomic`
}

// addressForNonAtomicUse escapes the cell to arbitrary code.
func addressForNonAtomicUse(s *stats) *uint64 {
	return &s.misses // want `field misses is marked clampi:atomic`
}

// valueRangeCopiesCells: ranging with a value variable copies each
// atomic cell out of the array.
func valueRangeCopiesCells(s *stats) int64 {
	var sum int64
	for _, b := range s.buckets { // want `field buckets is marked clampi:atomic`
		sum += b.Load()
	}
	return sum
}

// unannotatedStaysLegal: only marked fields are constrained.
func unannotatedStaysLegal(s *stats) string {
	s.name = "w0"
	return s.name
}
