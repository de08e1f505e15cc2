package graph

import (
	"testing"
	"testing/quick"

	"clampi/internal/rmat"
)

func triangle() *CSR {
	return Build(4, []rmat.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})
}

func TestBuildBasics(t *testing.T) {
	g := triangle()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.N != 4 || g.Edges() != 4 {
		t.Fatalf("N=%d edges=%d", g.N, g.Edges())
	}
	if g.Degree(2) != 3 || g.Degree(3) != 1 {
		t.Fatalf("degrees: %d %d", g.Degree(2), g.Degree(3))
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) || g.HasEdge(0, 3) {
		t.Fatalf("HasEdge wrong")
	}
	if g.MaxDegree() != 3 {
		t.Fatalf("MaxDegree = %d", g.MaxDegree())
	}
}

func TestBuildDropsSelfLoopsAndDuplicates(t *testing.T) {
	g := Build(3, []rmat.Edge{{U: 0, V: 0}, {U: 0, V: 1}, {U: 1, V: 0}, {U: 0, V: 1}, {U: 2, V: 1}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 2 { // (0,1) and (1,2)
		t.Fatalf("edges = %d, want 2", g.Edges())
	}
	if g.Degree(0) != 1 || g.Degree(1) != 2 || g.Degree(2) != 1 {
		t.Fatalf("degrees = %d %d %d", g.Degree(0), g.Degree(1), g.Degree(2))
	}
}

func TestBuildDropsOutOfRange(t *testing.T) {
	g := Build(2, []rmat.Edge{{U: 0, V: 1}, {U: 0, V: 5}, {U: -1, V: 0}})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Edges() != 1 {
		t.Fatalf("edges = %d", g.Edges())
	}
}

func TestBuildFromRMAT(t *testing.T) {
	edges := rmat.Generate(10, 8, rmat.Graph500, 5)
	g := Build(1<<10, edges)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.Edges() == 0 {
		t.Fatalf("empty graph from R-MAT")
	}
}

func TestIntersectSortedCount(t *testing.T) {
	cases := []struct {
		a, b []int32
		want int
	}{
		{nil, nil, 0},
		{[]int32{1, 2, 3}, nil, 0},
		{[]int32{1, 2, 3}, []int32{2, 3, 4}, 2},
		{[]int32{1, 5, 9}, []int32{2, 6, 10}, 0},
		{[]int32{1, 2, 3}, []int32{1, 2, 3}, 3},
	}
	for _, c := range cases {
		if got := IntersectSortedCount(c.a, c.b); got != c.want {
			t.Errorf("Intersect(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestPartitionCoversAllVertices(t *testing.T) {
	f := func(nRaw, pRaw uint16) bool {
		n := int(nRaw%5000) + 1
		p := int(pRaw%64) + 1
		part := Partition{N: n, P: p}
		covered := 0
		prevHi := 0
		for rank := 0; rank < p; rank++ {
			lo, hi := part.Range(rank)
			if lo != prevHi || hi < lo {
				return false
			}
			for v := lo; v < hi; v++ {
				if part.Owner(v) != rank {
					return false
				}
			}
			if part.Count(rank) != hi-lo {
				return false
			}
			covered += hi - lo
			prevHi = hi
		}
		return covered == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestPartitionBalance(t *testing.T) {
	part := Partition{N: 10, P: 3}
	// 10 = 4 + 3 + 3.
	if c := part.Count(0); c != 4 {
		t.Fatalf("Count(0) = %d", c)
	}
	if c := part.Count(1); c != 3 {
		t.Fatalf("Count(1) = %d", c)
	}
	if c := part.Count(2); c != 3 {
		t.Fatalf("Count(2) = %d", c)
	}
}

func TestDistributeAndRemoteLoc(t *testing.T) {
	g := triangle()
	const p = 2
	d0 := Distribute(g, p, 0)
	d1 := Distribute(g, p, 1)
	if !d0.Owned(0) || d0.Owned(3) || !d1.Owned(3) {
		t.Fatalf("ownership wrong")
	}
	// Vertex 2 is owned by rank 1 (partition 4 over 2: [0,2), [2,4)).
	owner, disp, size := d0.RemoteLoc(2)
	if owner != 1 {
		t.Fatalf("owner = %d", owner)
	}
	if size != g.Degree(2)*4 {
		t.Fatalf("size = %d", size)
	}
	// The bytes at that location in the owner's region decode to
	// adj(2).
	checkAdjBytes(t, d1.LocalAdjBytes()[disp:disp+size], g.Neighbors(2))
}

// checkAdjBytes checks that b is want in the window's wire form.
func checkAdjBytes(t *testing.T, b []byte, want []int32) {
	t.Helper()
	if len(b) != 4*len(want) {
		t.Fatalf("%d adjacency bytes for %d neighbours", len(b), len(want))
	}
	for i, w := range want {
		if got := Int32At(b[4*i:]); got != w {
			t.Fatalf("adj[%d] = %d, want %d", i, got, w)
		}
	}
}

func TestLocalAdjBytesRoundTrip(t *testing.T) {
	edges := rmat.Generate(8, 8, rmat.Graph500, 11)
	g := Build(1<<8, edges)
	const p = 4
	for rank := 0; rank < p; rank++ {
		d := Distribute(g, p, rank)
		region := d.LocalAdjBytes()
		for v := d.Lo; v < d.Hi; v++ {
			_, disp, size := d.RemoteLoc(v)
			checkAdjBytes(t, region[disp:disp+size], g.Neighbors(v))
		}
	}
}

func TestInt32Coding(t *testing.T) {
	var b [4]byte
	for _, v := range []int32{0, 1, -1, 1 << 30, -(1 << 30)} {
		putInt32(b[:], v)
		if Int32At(b[:]) != v {
			t.Fatalf("round trip of %d failed", v)
		}
	}
}
