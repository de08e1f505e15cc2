package graph

import (
	"slices"
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

// setBuild is the definition Build is held to: a map of neighbour sets,
// read out in ascending order.
func setBuild(n int, edges []rmat.Edge) (offs []int64, adj []int32) {
	sets := make([]map[int32]bool, n)
	for _, e := range edges {
		if e.U == e.V || e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			continue
		}
		for _, uv := range [2][2]int32{{e.U, e.V}, {e.V, e.U}} {
			if sets[uv[0]] == nil {
				sets[uv[0]] = map[int32]bool{}
			}
			sets[uv[0]][uv[1]] = true
		}
	}
	offs = make([]int64, n+1)
	adj = []int32{}
	for v, set := range sets {
		list := make([]int32, 0, len(set))
		for u := range set {
			list = append(list, u)
		}
		slices.Sort(list)
		adj = append(adj, list...)
		offs[v+1] = int64(len(adj))
	}
	return offs, adj
}

// checkBuild holds Build(n, edges) to setBuild and to CSR.Validate.
func checkBuild(t *testing.T, n int, edges []rmat.Edge) {
	t.Helper()
	g := Build(n, edges)
	if err := g.Validate(); err != nil {
		t.Fatalf("n=%d edges=%v: %v", n, edges, err)
	}
	offs, adj := setBuild(n, edges)
	if g.N != n || !slices.Equal(g.Offs, offs) || !slices.Equal(g.Adj, adj) {
		t.Fatalf("n=%d edges=%v:\n got Offs %v Adj %v\nwant Offs %v Adj %v", n, edges, g.Offs, g.Adj, offs, adj)
	}
}

// buildCases are the seed inputs of TestBuildMatchesSetConstruction and
// FuzzBuild: every kind of edge Build must drop, merge or keep.
var buildCases = []struct {
	name  string
	n     int
	edges []rmat.Edge
}{
	{"n0", 0, nil},
	{"n0 edges", 0, []rmat.Edge{{U: 0, V: 0}, {U: 0, V: 1}}},
	{"n1", 1, []rmat.Edge{{U: 0, V: 0}}},
	{"n2", 2, []rmat.Edge{{U: 0, V: 1}}},
	{"n2 reversed", 2, []rmat.Edge{{U: 1, V: 0}, {U: 0, V: 1}, {U: 1, V: 0}}},
	{"self-loops", 3, []rmat.Edge{{U: 1, V: 1}, {U: 0, V: 2}, {U: 2, V: 2}}},
	{"duplicates", 4, []rmat.Edge{{U: 3, V: 0}, {U: 3, V: 0}, {U: 0, V: 3}, {U: 3, V: 1}, {U: 3, V: 0}}},
	{"out of range", 3, []rmat.Edge{{U: -1, V: 0}, {U: 0, V: -1}, {U: 3, V: 1}, {U: 1, V: 3}, {U: 1, V: 2}, {U: -1 << 31, V: 1<<31 - 1}}},
	{"isolated", 8, []rmat.Edge{{U: 6, V: 2}, {U: 2, V: 4}}},
	{"descending source order", 5, []rmat.Edge{{U: 4, V: 3}, {U: 4, V: 0}, {U: 3, V: 1}, {U: 2, V: 0}, {U: 1, V: 0}}},
}

func TestBuildMatchesSetConstruction(t *testing.T) {
	for _, c := range buildCases {
		t.Run(c.name, func(t *testing.T) { checkBuild(t, c.n, c.edges) })
	}
	for scale := 4; scale <= 10; scale++ {
		for seed := int64(1); seed <= 3; seed++ {
			checkBuild(t, 1<<scale, rmat.Generate(scale, 8, rmat.Graph500, seed))
		}
	}
}

// FuzzBuild decodes raw into edges, two bytes each: id b−2 makes −2 and
// −1, and every id ≥ n, reachable for every n.
func FuzzBuild(f *testing.F) {
	for _, c := range buildCases {
		raw := make([]byte, 0, 2*len(c.edges))
		for _, e := range c.edges {
			raw = append(raw, fuzzID(e.U), fuzzID(e.V))
		}
		f.Add(uint8(c.n), raw)
	}
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		edges := make([]rmat.Edge, len(raw)/2)
		for i := range edges {
			edges[i] = rmat.Edge{U: int32(raw[2*i]) - 2, V: int32(raw[2*i+1]) - 2}
		}
		checkBuild(t, int(n), edges)
	})
}

// fuzzID encodes id for FuzzBuild, clamped to the ids it can express.
func fuzzID(id int32) byte { return byte(min(max(id+2, 0), 255)) }

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
