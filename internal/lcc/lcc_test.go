package lcc

import (
	"fmt"
	"math"
	"strconv"
	"testing"

	"clampi/internal/core"
	"clampi/internal/getter"
	"clampi/internal/graph"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/rmat"
	"clampi/internal/trace"
)

func testGraph(t *testing.T, scale, ef int) *graph.CSR {
	t.Helper()
	g := graph.Build(1<<scale, rmat.Generate(scale, ef, rmat.Graph500, 33))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func TestReferenceOnKnownGraphs(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 on vertex 2.
	g := graph.Build(4, []rmat.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}})
	lcc := Reference(g)
	want := []float64{1, 1, 1.0 / 3.0, 0}
	for v, w := range want {
		if math.Abs(lcc[v]-w) > 1e-12 {
			t.Errorf("LCC(%d) = %v, want %v", v, lcc[v], w)
		}
	}
	// Complete graph K4: all coefficients 1.
	k4 := graph.Build(4, []rmat.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}})
	for v, c := range Reference(k4) {
		if math.Abs(c-1) > 1e-12 {
			t.Errorf("K4 LCC(%d) = %v", v, c)
		}
	}
	// Star graph: center has LCC 0.
	star := graph.Build(5, []rmat.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}})
	if Reference(star)[0] != 0 {
		t.Errorf("star center LCC = %v", Reference(star)[0])
	}
}

// intersectSortedCount returns |a ∩ b| for two ascending lists by
// merging them: the paper's LCC inner kernel, and the definition that
// Run's stamp count and Reference's forward count are both held to.
func intersectSortedCount(a, b []int32) int {
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
		if got := intersectSortedCount(c.a, c.b); got != c.want {
			t.Errorf("intersect(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

// mergeReference is LCC by definition, vertex by vertex: the sum of
// |adj(v) ∩ adj(u)| over u ∈ adj(v), divided by deg(v)·(deg(v)−1).
func mergeReference(g *graph.CSR) []float64 {
	out := make([]float64, g.N)
	for v := 0; v < g.N; v++ {
		adjV := g.Neighbors(v)
		deg := len(adjV)
		if deg < 2 {
			continue
		}
		var count int64
		for _, u := range adjV {
			count += int64(intersectSortedCount(adjV, g.Neighbors(int(u))))
		}
		out[v] = float64(count) / float64(deg*(deg-1))
	}
	return out
}

// checkReference requires Reference to give mergeReference's floats
// exactly, vertex by vertex.
func checkReference(t *testing.T, name string, g *graph.CSR) {
	t.Helper()
	got, want := Reference(g), mergeReference(g)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("%s: LCC(%d) = %v by the forward count, %v by the merge", name, v, got[v], want[v])
		}
	}
}

func complete(n int) []rmat.Edge {
	var es []rmat.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			es = append(es, rmat.Edge{U: int32(u), V: int32(v)})
		}
	}
	return es
}

func cycle(n int) []rmat.Edge {
	es := make([]rmat.Edge, n)
	for v := range es {
		es[v] = rmat.Edge{U: int32(v), V: int32((v + 1) % n)}
	}
	return es
}

func star(leaves int) []rmat.Edge {
	es := make([]rmat.Edge, leaves)
	for v := range es {
		es[v] = rmat.Edge{U: 0, V: int32(v + 1)}
	}
	return es
}

// petersen is the 3-regular Petersen graph: outer 5-cycle, spokes, inner
// pentagram.
func petersen() []rmat.Edge {
	var es []rmat.Edge
	for i := int32(0); i < 5; i++ {
		es = append(es, rmat.Edge{U: i, V: (i + 1) % 5}, rmat.Edge{U: i, V: i + 5}, rmat.Edge{U: i + 5, V: 5 + (i+2)%5})
	}
	return es
}

// tieGraphs are made of degree ties — all of K_n, C_n and the 3-regular
// Petersen graph, a star's leaves — so the (degree, id) order falls back
// on the id to orient the edges between them.
func tieGraphs() map[string]*graph.CSR {
	gs := map[string]*graph.CSR{"petersen": graph.Build(10, petersen())}
	for n := 0; n <= 7; n++ {
		gs["K"+strconv.Itoa(n)] = graph.Build(n, complete(n))
	}
	for n := 3; n <= 8; n++ {
		gs["C"+strconv.Itoa(n)] = graph.Build(n, cycle(n))
	}
	for l := 1; l <= 5; l++ {
		gs["star"+strconv.Itoa(l)] = graph.Build(l+1, star(l))
	}
	return gs
}

func TestReferenceMatchesMergeDefinition(t *testing.T) {
	for name, g := range tieGraphs() {
		checkReference(t, name, g)
	}
	for scale := 8; scale <= 13; scale++ {
		for seed := int64(1); seed <= 3; seed++ {
			g := graph.Build(1<<scale, rmat.Generate(scale, 16, rmat.Graph500, seed))
			checkReference(t, fmt.Sprintf("R-MAT scale %d seed %d", scale, seed), g)
		}
	}
}

// TestReferenceClearsMarks: vertices 0 and 1 come first in Reference's
// pass and share the out-list member 4. 3 ∈ out(0) is also in out(2), and
// 2 ∈ out(1), but 3 is no neighbour of 1: a mark on 3 left over from
// vertex 0 would count a triangle 1-2-3 that does not exist.
func TestReferenceClearsMarks(t *testing.T) {
	g := graph.Build(5, []rmat.Edge{{U: 0, V: 3}, {U: 0, V: 4}, {U: 1, V: 2}, {U: 1, V: 4}, {U: 2, V: 3}, {U: 2, V: 4}, {U: 3, V: 4}})
	checkReference(t, "shared out-lists", g)
	// Triangles 0-3-4, 1-2-4 and 2-3-4.
	want := []float64{1, 1, 2.0 / 3.0, 2.0 / 3.0, 0.5}
	for v, c := range Reference(g) {
		if c != want[v] {
			t.Errorf("LCC(%d) = %v, want %v", v, c, want[v])
		}
	}
}

// TestReferenceAllocsIndependentOfScale: Reference allocates its out-lists,
// counts, marks and result once each, however large the graph.
func TestReferenceAllocsIndependentOfScale(t *testing.T) {
	allocs := func(scale int) float64 {
		g := testGraph(t, scale, 16)
		return testing.AllocsPerRun(3, func() { sink = Reference(g) })
	}
	small, large := allocs(8), allocs(12)
	if small != large {
		t.Errorf("Reference allocates %.0f times at R-MAT scale 8, %.0f at scale 12", small, large)
	}
}

// FuzzReference decodes raw into edges over ids 0..255, two bytes each,
// of a graph with n vertices (Build drops the ids ≥ n).
func FuzzReference(f *testing.F) {
	seed := func(n int, es []rmat.Edge) {
		raw := make([]byte, 0, 2*len(es))
		for _, e := range es {
			raw = append(raw, byte(e.U), byte(e.V))
		}
		f.Add(uint8(n), raw)
	}
	seed(10, petersen())
	seed(6, complete(6))
	seed(7, cycle(7))
	seed(6, star(5))
	seed(0, nil)
	seed(255, rmat.Generate(8, 4, rmat.Graph500, 1))
	f.Fuzz(func(t *testing.T, n uint8, raw []byte) {
		edges := make([]rmat.Edge, len(raw)/2)
		for i := range edges {
			edges[i] = rmat.Edge{U: int32(raw[2*i]), V: int32(raw[2*i+1])}
		}
		checkReference(t, "fuzz", graph.Build(int(n), edges))
	})
}

// runDistributed computes the distributed LCC sum over P ranks with the
// given getter factory and returns ΣLCC and aggregate per-rank results.
// cfg is cloned per rank; a Recorder in it would be shared across rank
// goroutines, so use runDistributedCfg for per-rank configs instead.
func runDistributed(t *testing.T, g *graph.CSR, p int, mk func(win rma.Window) (getter.Getter, error), cfg Config) (float64, []Result) {
	return runDistributedCfg(t, g, p, mk, func(int) Config { return cfg })
}

func runDistributedCfg(t *testing.T, g *graph.CSR, p int, mk func(win rma.Window) (getter.Getter, error), cfgOf func(rank int) Config) (float64, []Result) {
	t.Helper()
	sums := make([]float64, p)
	results := make([]Result, p)
	err := mpi.Run(p, mpi.Config{}, func(r *mpi.Rank) error {
		d := graph.Distribute(g, p, r.ID())
		win := r.WinCreate(d.LocalAdjBytes(), nil)
		defer win.Free()
		gt, err := mk(win)
		if err != nil {
			return err
		}
		if err := win.LockAll(); err != nil {
			return err
		}
		res, err := Run(r.Clock(), d, gt, cfgOf(r.ID()))
		if err != nil {
			return err
		}
		if err := win.UnlockAll(); err != nil {
			return err
		}
		sums[r.ID()] = res.SumLCC
		results[r.ID()] = res
		r.Barrier()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range sums {
		total += s
	}
	return total, results
}

func refSum(g *graph.CSR) float64 {
	s := 0.0
	for _, c := range Reference(g) {
		s += c
	}
	return s
}

func TestDistributedMatchesReferenceRaw(t *testing.T) {
	g := testGraph(t, 9, 8)
	want := refSum(g)
	got, results := runDistributed(t, g, 4, func(w rma.Window) (getter.Getter, error) {
		return getter.NewRaw(w), nil
	}, Config{})
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("distributed ΣLCC = %v, reference %v", got, want)
	}
	var gets int64
	for _, r := range results {
		gets += r.RemoteGets
	}
	if gets == 0 {
		t.Fatalf("no remote gets in a 4-rank run")
	}
}

func TestDistributedMatchesReferenceCached(t *testing.T) {
	g := testGraph(t, 9, 8)
	want := refSum(g)
	got, results := runDistributed(t, g, 4, func(w rma.Window) (getter.Getter, error) {
		c, err := core.New(w, core.Params{Mode: core.AlwaysCache, IndexSlots: 4096, StorageBytes: 1 << 22, Seed: 5})
		if err != nil {
			return nil, err
		}
		return getter.NewCached(c), nil
	}, Config{})
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("cached ΣLCC = %v, reference %v", got, want)
	}
	for rank, r := range results {
		if r.Vertices == 0 {
			t.Errorf("rank %d processed no vertices", rank)
		}
	}
}

func TestCachedUnderPressureStillCorrect(t *testing.T) {
	// Tiny cache: heavy eviction/failing traffic must not corrupt
	// results.
	g := testGraph(t, 9, 8)
	want := refSum(g)
	got, _ := runDistributed(t, g, 4, func(w rma.Window) (getter.Getter, error) {
		c, err := core.New(w, core.Params{Mode: core.AlwaysCache, IndexSlots: 32, StorageBytes: 4096, Seed: 5})
		if err != nil {
			return nil, err
		}
		return getter.NewCached(c), nil
	}, Config{})
	if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
		t.Fatalf("pressured ΣLCC = %v, reference %v", got, want)
	}
}

func TestCachingReducesTime(t *testing.T) {
	// The headline claim: CLaMPI beats foMPI on LCC thanks to reuse.
	g := testGraph(t, 10, 8)
	_, rawRes := runDistributed(t, g, 4, func(w rma.Window) (getter.Getter, error) {
		return getter.NewRaw(w), nil
	}, Config{})
	_, cachedRes := runDistributed(t, g, 4, func(w rma.Window) (getter.Getter, error) {
		c, err := core.New(w, core.Params{Mode: core.AlwaysCache, IndexSlots: 1 << 16, StorageBytes: 64 << 20, Seed: 5})
		if err != nil {
			return nil, err
		}
		return getter.NewCached(c), nil
	}, Config{})
	var rawT, cachedT int64
	for i := range rawRes {
		rawT += int64(rawRes[i].Time)
		cachedT += int64(cachedRes[i].Time)
	}
	if cachedT >= rawT {
		t.Fatalf("caching did not help: cached %d vs raw %d", cachedT, rawT)
	}
	speedup := float64(rawT) / float64(cachedT)
	t.Logf("LCC speedup with ample cache: %.2fx", speedup)
	if speedup < 1.3 {
		t.Errorf("speedup %.2fx too small for a reuse-heavy R-MAT graph", speedup)
	}
}

func TestRecorderCapturesSizes(t *testing.T) {
	g := testGraph(t, 8, 8)
	recs := []*trace.Recorder{trace.NewRecorder(), trace.NewRecorder()}
	runDistributedCfg(t, g, 2, func(w rma.Window) (getter.Getter, error) {
		return getter.NewRaw(w), nil
	}, func(rank int) Config { return Config{Recorder: recs[rank]} })
	merged := trace.NewRecorder()
	for _, r := range recs {
		merged.Merge(r)
	}
	if merged.Total() == 0 {
		t.Fatalf("recorders saw no gets")
	}
	if merged.MeanSize() <= 0 {
		t.Fatalf("mean size = %v", merged.MeanSize())
	}
	// Remote get sizes are 4 bytes per neighbour: multiples of 4.
	for _, b := range merged.SizeHistogram() {
		if b.Gets > 0 && b.HiBytes < 4 {
			t.Fatalf("sub-4-byte gets recorded: %+v", b)
		}
	}
	// R-MAT reuse: far fewer distinct gets than total (Fig. 3's setup
	// has the same property).
	if merged.ReuseFactor() <= 1.2 {
		t.Errorf("reuse factor %.2f unexpectedly low", merged.ReuseFactor())
	}
}

func TestMaxVerticesCap(t *testing.T) {
	g := testGraph(t, 9, 8)
	_, results := runDistributed(t, g, 2, func(w rma.Window) (getter.Getter, error) {
		return getter.NewRaw(w), nil
	}, Config{MaxVertices: 10})
	for rank, r := range results {
		if r.Vertices != 10 {
			t.Errorf("rank %d processed %d vertices, want 10", rank, r.Vertices)
		}
	}
}

func TestTimePerVertex(t *testing.T) {
	var r Result
	if r.TimePerVertex() != 0 {
		t.Fatalf("zero result TimePerVertex = %v", r.TimePerVertex())
	}
	r.Vertices = 4
	r.Time = 400
	if r.TimePerVertex() != 100 {
		t.Fatalf("TimePerVertex = %v", r.TimePerVertex())
	}
}
