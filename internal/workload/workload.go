// Package workload generates the synthetic get sequences of the paper's
// micro-benchmarks (§IV-A).
//
// The sequence is built in two steps:
//
//  1. A set of N distinct gets, each targeting different data (no hits on
//     an ideal cache), with sizes drawn uniformly from {2^i | i = 0..16}.
//  2. A sequence of Z >= N gets sampled from the set with indices drawn
//     from a normal distribution N(N/2, N/4), so a subset of the gets is
//     much more frequent than the rest — the working set.
package workload

import (
	"math/rand"
)

// GetSpec is one get of the micro-benchmark: a contiguous transfer of
// Size bytes at displacement Disp in the target window.
type GetSpec struct {
	Disp int
	Size int
}

// MaxSizeExp is the largest size exponent of step 1 (sizes up to 2^16 B).
const MaxSizeExp = 16

// Distinct builds step 1: n distinct gets with power-of-two sizes laid
// out back to back (cache-line aligned) in the target region. The second
// result is the region size needed to hold them all.
func Distinct(n int, seed int64) ([]GetSpec, int) {
	if n <= 0 {
		return nil, 0
	}
	rng := rand.New(rand.NewSource(seed))
	specs := make([]GetSpec, n)
	off := 0
	for i := range specs {
		size := 1 << rng.Intn(MaxSizeExp+1)
		specs[i] = GetSpec{Disp: off, Size: size}
		off += (size + 63) / 64 * 64
	}
	return specs, off
}

// Sequence builds step 2: z indices into a set of n distinct gets, drawn
// from N(n/2, n/4) and clamped to [0, n).
func Sequence(n, z int, seed int64) []int {
	if n <= 0 || z <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	seq := make([]int, z)
	mean, dev := float64(n)/2, float64(n)/4
	for i := range seq {
		v := int(rng.NormFloat64()*dev + mean)
		if v < 0 {
			v = 0
		}
		if v >= n {
			v = n - 1
		}
		seq[i] = v
	}
	return seq
}

// Micro combines both steps: the distinct set, the sampled sequence of
// indices into it, and the region size that holds all the data.
func Micro(n, z int, seed int64) (specs []GetSpec, seq []int, regionSize int) {
	specs, regionSize = Distinct(n, seed)
	seq = Sequence(n, z, seed+1)
	return specs, seq, regionSize
}
