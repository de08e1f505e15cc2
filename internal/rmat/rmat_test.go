package rmat

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// referenceGenerate is the definition Generate is held to: the plain
// descent over rand.New(rand.NewSource(seed)), one switch per level.
func referenceGenerate(scale, edgeFactor int, p Params, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 0, edgeFactor<<scale)
	a, b, c := p.A, p.B, p.C
	for i := 0; i < edgeFactor<<scale; i++ {
		var u, v int32
		for depth := 0; depth < scale; depth++ {
			an := a * (0.9 + 0.2*rng.Float64())
			bn := b * (0.9 + 0.2*rng.Float64())
			cn := c * (0.9 + 0.2*rng.Float64())
			dn := (1 - a - b - c) * (0.9 + 0.2*rng.Float64())
			norm := an + bn + cn + dn
			r := rng.Float64() * norm
			u <<= 1
			v <<= 1
			switch {
			case r < an:
				// quadrant A: (0,0)
			case r < an+bn:
				v |= 1
			case r < an+bn+cn:
				u |= 1
			default:
				u |= 1
				v |= 1
			}
		}
		edges = append(edges, Edge{U: u, V: v})
	}
	return edges
}

// DegreeHistogram returns out-degree counts per vertex for raw edges,
// ignoring sources outside [0, n).
func DegreeHistogram(n int, edges []Edge) []int {
	deg := make([]int, n)
	for _, e := range edges {
		if int(e.U) < n {
			deg[e.U]++
		}
	}
	return deg
}

// checkEdges fails t at the first edge where got and want differ.
func checkEdges(t *testing.T, what string, got, want []Edge) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d edges, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s edge %d: %v, want %v", what, i, got[i], want[i])
		}
	}
}

var (
	identitySeeds  = []int64{0, 1, -7, 42, 20170529}
	identityParams = []Params{Graph500, {0.25, 0.25, 0.25, 0.25}, {0.45, 0.15, 0.15, 0.25}}
)

func TestSourceMatchesMathRand(t *testing.T) {
	// 10^6 draws cross the first lagLong values taken from math/rand
	// and 244 computed blocks, so the recurrence itself is checked.
	for _, seed := range identitySeeds {
		want := rand.New(rand.NewSource(seed))
		got := newSource(seed)
		for i := 0; i < 1e6; i++ {
			if g, w := got.Float64(), want.Float64(); g != w {
				t.Fatalf("seed %d draw %d: %v, math/rand %v", seed, i, g, w)
			}
		}
	}
}

func TestSourceResamplesOne(t *testing.T) {
	// float64(y)/2^63 rounds to 1 for y >= 1<<63-512: Float64 skips
	// those values and returns the one after, as math/rand's goto does.
	for _, tc := range []struct {
		planted int64
		kept    bool
	}{
		{math.MaxInt64, false},
		{1<<63 - 512, false},
		{1<<63 - 513, true},
	} {
		s := newSource(1)
		s.y[s.next] = tc.planted
		after := float64(s.y[s.next+1]) / (1 << 63)
		if tc.kept {
			if f := s.Float64(); f != float64(tc.planted)/(1<<63) {
				t.Fatalf("planted %d: drew %v", tc.planted, f)
			}
		}
		if got := s.Float64(); got != after {
			t.Fatalf("planted %d (kept %v): next draw %v, want %v", tc.planted, tc.kept, got, after)
		}
	}
}

func TestGenerateMatchesReference(t *testing.T) {
	// Edge i does not depend on the edge factor, so a small one checks
	// a prefix of every sequence the callers generate; at scale 14 it is
	// still 2.3·10^6 draws, hundreds of computed blocks.
	const ef = 2
	for _, p := range identityParams {
		for _, seed := range identitySeeds {
			for scale := 0; scale <= 14; scale++ {
				what := fmt.Sprintf("%v seed %d scale %d", p, seed, scale)
				checkEdges(t, what, Generate(scale, ef, p, seed), referenceGenerate(scale, ef, p, seed))
			}
		}
	}
}

func FuzzGenerate(f *testing.F) {
	f.Add(uint8(0), uint8(1), int64(0))
	f.Add(uint8(5), uint8(4), int64(-7))
	f.Add(uint8(12), uint8(8), int64(20170529))
	f.Fuzz(func(t *testing.T, scale, ef uint8, seed int64) {
		s, e := int(scale%13), int(ef%9)
		what := fmt.Sprintf("scale %d edge factor %d seed %d", s, e, seed)
		checkEdges(t, what, Generate(s, e, Graph500, seed), referenceGenerate(s, e, Graph500, seed))
	})
}

func BenchmarkGenerate(b *testing.B) {
	const scale, ef = 14, 16
	for i := 0; i < b.N; i++ {
		Generate(scale, ef, Graph500, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*ef<<scale), "ns/edge")
}

func TestGenerateShape(t *testing.T) {
	edges := Generate(10, 16, Graph500, 1)
	if len(edges) != 16*1024 {
		t.Fatalf("edges = %d, want %d", len(edges), 16*1024)
	}
	for _, e := range edges {
		if e.U < 0 || e.U >= 1024 || e.V < 0 || e.V >= 1024 {
			t.Fatalf("edge (%d,%d) out of range", e.U, e.V)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(8, 8, Graph500, 7)
	b := Generate(8, 8, Graph500, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same-seed generation differs at %d", i)
		}
	}
	c := Generate(8, 8, Graph500, 8)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatalf("different seeds produced identical edges")
	}
}

func TestScaleFreeDegrees(t *testing.T) {
	// R-MAT with Graph500 parameters must be heavy-tailed: the top 1%
	// of vertices should hold far more than 1% of the edges, unlike a
	// uniform random graph.
	const scale, ef = 12, 16
	n := 1 << scale
	edges := Generate(scale, ef, Graph500, 3)
	deg := DegreeHistogram(n, edges)
	sort.Sort(sort.Reverse(sort.IntSlice(deg)))
	top := 0
	for _, d := range deg[:n/100] {
		top += d
	}
	frac := float64(top) / float64(len(edges))
	if frac < 0.10 {
		t.Fatalf("top 1%% of vertices hold only %.1f%% of edges — not scale-free", frac*100)
	}
	// And some vertices are isolated (another scale-free signature).
	zeros := 0
	for _, d := range deg {
		if d == 0 {
			zeros++
		}
	}
	if zeros == 0 {
		t.Fatalf("no isolated vertices in an R-MAT graph")
	}
}

func TestUniformParamsAreNotSkewed(t *testing.T) {
	// Sanity check of the generator: with A=B=C=D=0.25 degrees are
	// near-uniform (low skew), confirming the skew comes from Params.
	const scale, ef = 12, 16
	n := 1 << scale
	edges := Generate(scale, ef, Params{0.25, 0.25, 0.25, 0.25}, 3)
	deg := DegreeHistogram(n, edges)
	sort.Sort(sort.Reverse(sort.IntSlice(deg)))
	top := 0
	for _, d := range deg[:n/100] {
		top += d
	}
	frac := float64(top) / float64(len(edges))
	if frac > 0.05 {
		t.Fatalf("uniform parameters produced skew: top 1%% holds %.1f%%", frac*100)
	}
}

func TestScaleValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("scale 31 did not panic")
		}
	}()
	Generate(31, 1, Graph500, 1)
}

func TestEdgeFactorValidation(t *testing.T) {
	for _, tc := range []struct{ scale, ef int }{{4, -1}, {0, math.MinInt}, {30, math.MaxInt>>30 + 1}} {
		func() {
			defer func() {
				if r := recover(); r != "rmat: edge factor out of range" {
					t.Fatalf("scale %d edge factor %d: recovered %v", tc.scale, tc.ef, r)
				}
			}()
			Generate(tc.scale, tc.ef, Graph500, 1)
		}()
	}
}

func TestDegreeHistogramIgnoresOutOfRange(t *testing.T) {
	deg := DegreeHistogram(2, []Edge{{0, 1}, {5, 0}})
	if deg[0] != 1 || deg[1] != 0 {
		t.Fatalf("deg = %v", deg)
	}
}
