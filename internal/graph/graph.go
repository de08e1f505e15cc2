// Package graph provides the compressed-sparse-row graphs and the 1-D
// partitioning used by the LCC experiments (paper §IV-C).
//
// The distributed layout follows the paper: vertices are block-partitioned
// over P ranks; each rank owns its vertices' adjacency lists and exposes
// them through an RMA window. The global offsets array is replicated on
// every rank (it is small), so the owner, displacement and size of any
// vertex's adjacency list can be computed locally and fetched with a
// single get — whose size is the vertex degree, reproducing the size
// distribution of Fig. 3.
package graph

import (
	"fmt"
	"sort"

	"clampi/internal/rmat"
)

// CSR is an immutable compressed-sparse-row graph.
type CSR struct {
	N    int
	Offs []int64 // len N+1; adjacency of v is Adj[Offs[v]:Offs[v+1]]
	Adj  []int32
}

// Build constructs a simple undirected graph from raw R-MAT edges:
// self-loops are dropped, both directions are added, and duplicate edges
// are removed. Adjacency lists are sorted ascending.
func Build(n int, edges []rmat.Edge) *CSR {
	deg := make([]int64, n+1)
	for _, e := range edges {
		if e.U == e.V || int(e.U) >= n || int(e.V) >= n || e.U < 0 || e.V < 0 {
			continue
		}
		deg[e.U+1]++
		deg[e.V+1]++
	}
	offs := make([]int64, n+1)
	for i := 0; i < n; i++ {
		offs[i+1] = offs[i] + deg[i+1]
	}
	adj := make([]int32, offs[n])
	fill := make([]int64, n)
	for _, e := range edges {
		if e.U == e.V || int(e.U) >= n || int(e.V) >= n || e.U < 0 || e.V < 0 {
			continue
		}
		adj[offs[e.U]+fill[e.U]] = e.V
		fill[e.U]++
		adj[offs[e.V]+fill[e.V]] = e.U
		fill[e.V]++
	}
	// Sort and dedup each adjacency list, compacting in place.
	newOffs := make([]int64, n+1)
	w := int64(0)
	for v := 0; v < n; v++ {
		lo, hi := offs[v], offs[v]+fill[v]
		list := adj[lo:hi]
		sort.Slice(list, func(i, j int) bool { return list[i] < list[j] })
		start := w
		var prev int32 = -1
		for _, u := range list {
			if u != prev {
				adj[w] = u
				w++
				prev = u
			}
		}
		newOffs[v] = start
	}
	newOffs[n] = w
	// Shift starts: newOffs currently holds starts; convert to offsets.
	offs2 := make([]int64, n+1)
	copy(offs2, newOffs)
	return &CSR{N: n, Offs: offs2, Adj: append([]int32(nil), adj[:w]...)}
}

// Degree returns deg(v).
func (g *CSR) Degree(v int) int { return int(g.Offs[v+1] - g.Offs[v]) }

// Neighbors returns adj(v), sorted ascending. The slice aliases the
// graph's storage and must not be modified.
func (g *CSR) Neighbors(v int) []int32 { return g.Adj[g.Offs[v]:g.Offs[v+1]] }

// Edges returns the number of undirected edges.
func (g *CSR) Edges() int64 { return g.Offs[g.N] / 2 }

// MaxDegree returns the largest degree in the graph.
func (g *CSR) MaxDegree() int {
	m := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > m {
			m = d
		}
	}
	return m
}

// Validate checks CSR structural invariants (test helper).
func (g *CSR) Validate() error {
	if len(g.Offs) != g.N+1 {
		return fmt.Errorf("graph: offsets length %d for %d vertices", len(g.Offs), g.N)
	}
	if g.Offs[0] != 0 || g.Offs[g.N] != int64(len(g.Adj)) {
		return fmt.Errorf("graph: offset bounds [%d, %d] vs %d adj entries", g.Offs[0], g.Offs[g.N], len(g.Adj))
	}
	for v := 0; v < g.N; v++ {
		if g.Offs[v] > g.Offs[v+1] {
			return fmt.Errorf("graph: negative degree at %d", v)
		}
		list := g.Neighbors(v)
		for i, u := range list {
			if int(u) < 0 || int(u) >= g.N {
				return fmt.Errorf("graph: neighbour %d of %d out of range", u, v)
			}
			if int(u) == v {
				return fmt.Errorf("graph: self loop at %d", v)
			}
			if i > 0 && list[i-1] >= u {
				return fmt.Errorf("graph: adjacency of %d not sorted/unique", v)
			}
		}
	}
	// Symmetry: (u,v) implies (v,u).
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if !g.HasEdge(int(u), v) {
				return fmt.Errorf("graph: asymmetric edge %d->%d", v, u)
			}
		}
	}
	return nil
}

// HasEdge reports whether (u, v) is in the graph (binary search).
func (g *CSR) HasEdge(u, v int) bool {
	list := g.Neighbors(u)
	i := sort.Search(len(list), func(i int) bool { return list[i] >= int32(v) })
	return i < len(list) && list[i] == int32(v)
}

// IntersectSortedCount returns |a ∩ b| for two ascending-sorted lists by
// merging them: the paper's LCC inner kernel, here the oracle
// (lcc.Reference) that lcc.Run's stamp count is checked against.
func IntersectSortedCount(a, b []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// Partition is a 1-D block partition of N vertices over P ranks: the
// first N%P ranks own ceil(N/P) vertices, the rest floor(N/P).
type Partition struct {
	N, P int
}

// Owner returns the rank owning vertex v.
func (p Partition) Owner(v int) int {
	q, r := p.N/p.P, p.N%p.P
	big := (q + 1) * r
	if v < big {
		return v / (q + 1)
	}
	return r + (v-big)/q
}

// Range returns the [lo, hi) vertex range owned by rank.
func (p Partition) Range(rank int) (lo, hi int) {
	q, r := p.N/p.P, p.N%p.P
	if rank < r {
		lo = rank * (q + 1)
		return lo, lo + q + 1
	}
	lo = r*(q+1) + (rank-r)*q
	return lo, lo + q
}

// Count returns the number of vertices owned by rank.
func (p Partition) Count(rank int) int {
	lo, hi := p.Range(rank)
	return hi - lo
}

// Dist is a rank's view of the distributed graph: the replicated offsets
// plus its local adjacency slice (the bytes it exposes via its window).
type Dist struct {
	G    *CSR // full graph (shared, read-only — in-process simulation)
	Part Partition
	Rank int
	Lo   int // first owned vertex
	Hi   int // one past last owned vertex
}

// Distribute builds rank's view of g over p ranks.
func Distribute(g *CSR, p, rank int) *Dist {
	part := Partition{N: g.N, P: p}
	lo, hi := part.Range(rank)
	return &Dist{G: g, Part: part, Rank: rank, Lo: lo, Hi: hi}
}

// LocalAdjBytes returns the rank's adjacency slice reinterpreted as the
// byte region it exposes via its RMA window (little-endian int32).
func (d *Dist) LocalAdjBytes() []byte {
	lo, hi := d.G.Offs[d.Lo], d.G.Offs[d.Hi]
	out := make([]byte, (hi-lo)*4)
	for i, u := range d.G.Adj[lo:hi] {
		putInt32(out[i*4:], u)
	}
	return out
}

// RemoteLoc returns the owner rank, byte displacement and byte size of
// vertex u's adjacency list in the owner's window.
func (d *Dist) RemoteLoc(u int) (owner, disp, size int) {
	owner = d.Part.Owner(u)
	olo, _ := d.Part.Range(owner)
	disp = int((d.G.Offs[u] - d.G.Offs[olo]) * 4)
	size = d.G.Degree(u) * 4
	return owner, disp, size
}

// Owned reports whether v is owned by this rank.
func (d *Dist) Owned(v int) bool { return v >= d.Lo && v < d.Hi }

func putInt32(b []byte, v int32) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
}

// Int32At decodes a little-endian int32 from b.
func Int32At(b []byte) int32 {
	return int32(b[0]) | int32(b[1])<<8 | int32(b[2])<<16 | int32(b[3])<<24
}
