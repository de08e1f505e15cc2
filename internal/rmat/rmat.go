// Package rmat implements the R-MAT recursive-matrix random graph
// generator (Chakrabarti, Zhan, Faloutsos), which the paper uses to
// create the scale-free input graphs of the LCC experiments (§IV-C).
//
// Each edge is placed by recursively descending into one of the four
// quadrants of the adjacency matrix with probabilities (A, B, C, D); the
// Graph500 parameters (0.57, 0.19, 0.19, 0.05) produce the heavy-tailed
// degree distributions typical of real-world networks.
//
// Generate draws its random numbers from the sequence of
// rand.New(rand.NewSource(seed)).Float64, and its edges are the ones a
// plain descent over that *rand.Rand places (referenceGenerate in the
// tests, held to == there). Two things make it cheaper per edge:
// source extends math/rand's stream by its own lagged-Fibonacci
// recurrence in blocks instead of one interface call per draw, and the
// descent sets the quadrant bits from three comparisons instead of a
// switch whose 0.57/0.19/0.19/0.05 draw mispredicts about once per
// level. BenchmarkGenerate (scale 14, edge factor 16) on a 2-vCPU x86-64
// VM, 11 alternating pairs: 132–198 ms (503–756 ns/edge) with
// referenceGenerate's descent as Generate, 42–73 ms (161–279 ns/edge)
// with this one, 2.6–3.4× per pair.
package rmat

import (
	"math"
	"math/rand"
)

// Params are the quadrant probabilities. They must be positive and sum
// to ~1.
type Params struct {
	A, B, C, D float64
}

// Graph500 is the standard parameter set used by the paper's experiments.
var Graph500 = Params{A: 0.57, B: 0.19, C: 0.19, D: 0.05}

// Edge is one directed edge (U -> V) over vertex ids [0, 2^scale).
type Edge struct {
	U, V int32
}

// Generate produces 2^scale vertices and edgeFactor * 2^scale R-MAT
// edges (with duplicates and self-loops, as raw R-MAT emits them;
// deduplication is the graph builder's job). Noise is added to the
// quadrant probabilities at each level, as in the Graph500 reference
// implementation, to avoid grid artifacts. The same arguments give the
// same edges.
func Generate(scale, edgeFactor int, p Params, seed int64) []Edge {
	if scale < 0 || scale > 30 {
		panic("rmat: scale out of range")
	}
	if edgeFactor < 0 || edgeFactor > math.MaxInt>>scale {
		panic("rmat: edge factor out of range")
	}
	edges := make([]Edge, edgeFactor<<scale)
	rng := newSource(seed)
	a, b, c := p.A, p.B, p.C
	for i := range edges {
		var u, v int32
		for depth := 0; depth < scale; depth++ {
			// Perturb the probabilities ±10% per level (Graph500 noise).
			an := a * (0.9 + 0.2*rng.Float64())
			bn := b * (0.9 + 0.2*rng.Float64())
			cn := c * (0.9 + 0.2*rng.Float64())
			dn := (1 - a - b - c) * (0.9 + 0.2*rng.Float64())
			norm := an + bn + cn + dn
			r := rng.Float64() * norm
			// The quadrant is the number of thresholds an, an+bn and
			// an+bn+cn that r reaches: A (0,0), B (0,1), C (1,0), D (1,1).
			// With B and C non-negative the thresholds ascend, so the
			// reached ones are a prefix and the bits follow from it.
			x, y, z := bit(r >= an), bit(r >= an+bn), bit(r >= an+bn+cn)
			u = u<<1 | y
			v = v<<1 | (x ^ y ^ z)
		}
		edges[i] = Edge{U: u, V: v}
	}
	return edges
}

func bit(b bool) int32 {
	if b {
		return 1
	}
	return 0
}

const (
	lagLong  = 607  // math/rand's rngLen
	lagShort = 273  // math/rand's rngTap
	block    = 4096 // values computed per refill
)

// source yields exactly rand.New(rand.NewSource(seed)).Float64's
// sequence. math/rand's source is the additive lagged-Fibonacci
// generator y[n] = y[n-607] + y[n-273] mod 2^63 (its Int63 values; the
// tests check the recurrence against math/rand itself), so after its
// first lagLong values the stream follows from them alone.
type source struct {
	// Float64 serves y[next:]. refill moves the last lagLong values to
	// the front and computes y[lagLong:] from them.
	y    [lagLong + block]int64
	next int
}

// newSource places math/rand's first lagLong values at the end of y,
// where Float64 serves them first and refill finds them.
func newSource(seed int64) *source {
	s := &source{next: block}
	src := rand.NewSource(seed)
	for i := block; i < len(s.y); i++ {
		s.y[i] = src.Int63()
	}
	return s
}

func (s *source) refill() {
	y := s.y[:]
	copy(y[:lagLong], y[block:])
	for n := lagLong; n < len(y); n++ {
		y[n] = (y[n-lagLong] + y[n-lagShort]) & math.MaxInt64
	}
	s.next = lagLong
}

// Float64 is (*rand.Rand).Float64 over the stream: resampling on a
// result of 1 consumes the value, as math/rand's does.
func (s *source) Float64() float64 {
	for {
		if s.next == len(s.y) {
			s.refill()
		}
		f := float64(s.y[s.next]) / (1 << 63)
		s.next++
		if f != 1 {
			return f
		}
	}
}
