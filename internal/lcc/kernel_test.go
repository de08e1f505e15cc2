package lcc

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"testing"

	"clampi/internal/core"
	"clampi/internal/getter"
	"clampi/internal/graph"
	"clampi/internal/rma"
	"clampi/internal/rmat"
	"clampi/internal/simtime"
)

// memGetter serves adjacency bytes out of the ranks' exposed regions in
// this process: a getter with no transport and no clock, so Run's Time is
// exactly its modelled compute charge.
type memGetter struct{ regions [][]byte }

func newMemGetter(g *graph.CSR, p int) (*memGetter, []*graph.Dist) {
	m := &memGetter{regions: make([][]byte, p)}
	dists := make([]*graph.Dist, p)
	for r := range dists {
		dists[r] = graph.Distribute(g, p, r)
		m.regions[r] = dists[r].LocalAdjBytes()
	}
	return m, dists
}

func (m *memGetter) Get(dst []byte, target, disp int) error {
	copy(dst, m.regions[target][disp:disp+len(dst)])
	return nil
}
func (m *memGetter) Flush() error { return nil }
func (m *memGetter) Invalidate()  {}
func (m *memGetter) Name() string { return "memory" }

// ascending draws a strictly ascending list of up to maxLen ids below n.
func ascending(rng *rand.Rand, n, maxLen int) []int32 {
	seen := map[int32]bool{}
	for i := rng.Intn(maxLen + 1); i > 0; i-- {
		seen[int32(rng.Intn(n))] = true
	}
	out := make([]int32, 0, len(seen))
	for w := range seen {
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func littleEndian(adj []int32) []byte {
	b := make([]byte, 0, 4*len(adj))
	for _, w := range adj {
		b = binary.LittleEndian.AppendUint32(b, uint32(w))
	}
	return b
}

// stampBothWays checks the two stamp passes (CSR form and wire form)
// against the merge for one pair of lists over n vertex ids.
func stampBothWays(t *testing.T, n int, a, b []int32) {
	t.Helper()
	want := graph.IntersectSortedCount(a, b)
	mark := make([]int32, n)
	for i := range mark {
		mark[i] = -1
	}
	// A stale stamp of another vertex must not count.
	for _, w := range b {
		mark[w] = 6
	}
	const v = 7
	for _, w := range a {
		mark[w] = v
	}
	if got := countStamped(mark, v, b); got != want {
		t.Fatalf("countStamped(%v, %v) = %d, merge %d", a, b, got, want)
	}
	if got, bad := countStampedLE(mark, v, littleEndian(b)); got != want || bad != -1 {
		t.Fatalf("countStampedLE(%v, %v) = %d (bad %d), merge %d", a, b, got, bad, want)
	}
}

func FuzzStampVsMerge(f *testing.F) {
	// (seed, id space − 1, longest list). Every input checks a random
	// pair, hub against leaf, identical and empty lists; the seeds set how
	// crowded the id space is.
	f.Add(int64(0), uint16(0), uint8(0))     // nothing but empty lists
	f.Add(int64(1), uint16(63), uint8(1))    // one-element lists
	f.Add(int64(2), uint16(4095), uint8(8))  // sparse: mostly disjoint
	f.Add(int64(3), uint16(15), uint8(16))   // dense: near-identical
	f.Add(int64(4), uint16(511), uint8(255)) // a hub against leaves
	f.Fuzz(func(t *testing.T, seed int64, space uint16, maxLen uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := int(space) + 1
		a := ascending(rng, n, int(maxLen))
		stampBothWays(t, n, a, ascending(rng, n, int(maxLen)))
		stampBothWays(t, n, a, ascending(rng, n, 1)) // hub vs leaf, both orders
		stampBothWays(t, n, ascending(rng, n, 1), a)
		stampBothWays(t, n, a, a)   // identical
		stampBothWays(t, n, a, nil) // empty
		stampBothWays(t, n, nil, a)

		// A random small graph through the whole kernel: each rank's SumLCC
		// from Run against the merge oracle summed in the same order.
		gn := 2 + rng.Intn(48)
		edges := make([]rmat.Edge, rng.Intn(4*gn))
		for i := range edges {
			edges[i] = rmat.Edge{U: int32(rng.Intn(gn)), V: int32(rng.Intn(gn))}
		}
		g := graph.Build(gn, edges)
		ref := Reference(g)
		for _, p := range []int{1, 2, 3} {
			gt, dists := newMemGetter(g, p)
			for _, d := range dists {
				res, err := Run(simtime.NewClock(), d, gt, Config{})
				if err != nil {
					t.Fatal(err)
				}
				want := 0.0
				for v := d.Lo; v < d.Hi; v++ {
					want += ref[v]
				}
				if res.SumLCC != want {
					t.Fatalf("P=%d rank %d: ΣLCC = %v by stamp, %v by merge", p, d.Rank, res.SumLCC, want)
				}
			}
		}
	})
}

// parentResults are Run's per-rank results summed over the ranks, recorded
// at the last commit whose kernel was the sorted merge (dcc2ba1) on
// testGraph(10, 8). Nothing a caller can observe may differ under the
// stamp kernel: same counts, same division, same modelled charge.
var parentResults = []struct {
	p, maxVertices int
	cached         bool
	want           Result
}{
	{1, 0, false, Result{1024, 249.40079102328062, 145806, 12022, 0, 0, 1635072, 0}},
	{1, 100, false, Result{100, 32.25514281072506, 71170, 4402, 0, 0, 738515, 0}},
	{1, 0, true, Result{1024, 249.40079102328062, 145806, 12022, 0, 0, 1635072, 0}},
	{1, 100, true, Result{100, 32.25514281072506, 71170, 4402, 0, 0, 738515, 0}},
	{3, 0, false, Result{1024, 249.4007910232806, 145806, 12022, 6010, 1455360, 4377665, 2742593}},
	{3, 100, false, Result{300, 79.36956165132747, 79312, 5498, 2541, 524028, 1921830, 1065146}},
	{3, 0, true, Result{1024, 249.4007910232806, 145806, 12022, 6010, 1455360, 3240710, 1605638}},
	{3, 100, true, Result{300, 79.36956165132747, 79312, 5498, 2541, 524028, 1713676, 856992}},
	{4, 0, false, Result{1024, 249.40079102328068, 145806, 12022, 8012, 2006084, 4954081, 3319009}},
	{4, 100, false, Result{400, 118.1660037203245, 115536, 8524, 5771, 1393512, 3394440, 2159811}},
	{4, 0, true, Result{1024, 249.40079102328068, 145806, 12022, 8012, 2006084, 3712085, 2077013}},
	{4, 100, true, Result{400, 118.1660037203245, 115536, 8524, 5771, 1393512, 2882420, 1647791}},
}

func TestRunResultUnchanged(t *testing.T) {
	g := testGraph(t, 10, 8)
	for _, c := range parentResults {
		mk := func(w rma.Window) (getter.Getter, error) { return getter.NewRaw(w), nil }
		if c.cached {
			// Small enough to evict, so hits, misses and failed inserts all
			// feed Time and CommTime.
			mk = func(w rma.Window) (getter.Getter, error) {
				cache, err := core.New(w, core.Params{Mode: core.AlwaysCache, IndexSlots: 1024, StorageBytes: 64 << 10, Seed: 5})
				if err != nil {
					return nil, err
				}
				return getter.NewCached(cache), nil
			}
		}
		_, results := runDistributed(t, g, c.p, mk, Config{MaxVertices: c.maxVertices})
		var got Result
		for _, r := range results {
			got.Vertices += r.Vertices
			got.SumLCC += r.SumLCC
			got.Wedges += r.Wedges
			got.Gets += r.Gets
			got.RemoteGets += r.RemoteGets
			got.RemoteBytes += r.RemoteBytes
			got.Time += r.Time
			got.CommTime += r.CommTime
		}
		if got != c.want {
			t.Errorf("P=%d cached=%v MaxVertices=%d:\n got %+v\nwant %+v", c.p, c.cached, c.maxVertices, got, c.want)
		}
	}
}

// garbageGetter overwrites what one (target, disp) returns.
type garbageGetter struct {
	*memGetter
	target, disp int
	garbage      int32
}

func (g garbageGetter) Get(dst []byte, target, disp int) error {
	if err := g.memGetter.Get(dst, target, disp); err != nil {
		return err
	}
	if target == g.target && disp == g.disp {
		binary.LittleEndian.PutUint32(dst[len(dst)-4:], uint32(g.garbage))
	}
	return nil
}

func TestRunRejectsFetchedGarbage(t *testing.T) {
	g := testGraph(t, 8, 8)
	mem, dists := newMemGetter(g, 2)
	d := dists[0]
	// The first remote neighbour rank 0 meets.
	v, u := -1, -1
	for x := d.Lo; x < d.Hi && u < 0; x++ {
		if g.Degree(x) < 2 {
			continue
		}
		for _, w := range g.Neighbors(x) {
			if !d.Owned(int(w)) {
				v, u = x, int(w)
				break
			}
		}
	}
	if u < 0 {
		t.Fatal("rank 0 has no remote neighbour")
	}
	owner, disp, _ := d.RemoteLoc(u)
	for _, id := range []int32{-1, int32(g.N), 1<<31 - 1, -1 << 31} {
		_, err := Run(simtime.NewClock(), d, garbageGetter{mem, owner, disp, id}, Config{})
		if err == nil {
			t.Fatalf("id %d in a fetched list: no error", id)
		}
		for _, part := range []string{"vertex " + strconv.Itoa(v), "neighbour " + strconv.Itoa(u), "id " + strconv.Itoa(int(id))} {
			if !strings.Contains(err.Error(), part) {
				t.Errorf("id %d: error %q does not name %q", id, err, part)
			}
		}
	}
	// The largest legal id is not garbage, whatever it does to the count.
	if _, err := Run(simtime.NewClock(), d, garbageGetter{mem, owner, disp, int32(g.N - 1)}, Config{}); err != nil {
		t.Fatalf("id N-1: %v", err)
	}
	// The wire form itself: a list cut inside an id is refused whole.
	mark := make([]int32, 4)
	if n, bad := countStampedLE(mark, 0, make([]byte, 7)); n != 0 || bad != 7 {
		t.Fatalf("7-byte list: n %d bad %d, want 0 and 7", n, bad)
	}
	if err := badAdjacency(1, 2, 3, make([]byte, 7), 7); !strings.Contains(err.Error(), "7 bytes") {
		t.Fatalf("7-byte list: error %q", err)
	}
}

// TestRunAllocsIndependentOfVertexCount: Run allocates its stamp array,
// and its fetch arena and op list a few times while they grow to the
// largest vertex — not per vertex, not per neighbour.
func TestRunAllocsIndependentOfVertexCount(t *testing.T) {
	g := testGraph(t, 11, 8)
	mem, dists := newMemGetter(g, 2)
	allocs := func(maxVertices int) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(simtime.NewClock(), dists[0], mem, Config{MaxVertices: maxVertices}); err != nil {
				t.Fatal(err)
			}
		})
	}
	few, all := allocs(64), allocs(0)
	t.Logf("allocations per Run: %.0f for 64 vertices, %.0f for %d", few, all, dists[0].Hi-dists[0].Lo)
	if all > few+8 {
		t.Errorf("allocations grow with the vertex count: %.0f for 64 vertices, %.0f for %d", few, all, dists[0].Hi-dists[0].Lo)
	}
}

// BenchmarkLCCKernel puts the host clock beside DefaultComputeCost: host
// ns per touched element (the unit the model charges 1 vns for) of Run's
// stamp kernel and of the merge oracle, whole graph, R-MAT scale 13 EF 16.
// Over memGetter nothing but the compute charge advances the clock, so a
// Run's Time in ns is its touched-element count.
func BenchmarkLCCKernel(b *testing.B) {
	g := graph.Build(1<<13, rmat.Generate(13, 16, rmat.Graph500, 33))
	mem, dists := newMemGetter(g, 4)
	var touched simtime.Duration
	b.Run("stamp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			touched = 0
			for _, d := range dists {
				res, err := Run(simtime.NewClock(), d, mem, Config{})
				if err != nil {
					b.Fatal(err)
				}
				touched += res.Time
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(touched), "ns/elem")
	})
	b.Run("merge", func(b *testing.B) {
		if touched == 0 {
			b.Skip("needs the stamp run's element count")
		}
		for i := 0; i < b.N; i++ {
			sink = Reference(g)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(touched), "ns/elem")
	})
}

var sink []float64
