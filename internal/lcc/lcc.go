// Package lcc implements the distributed Local Clustering Coefficient
// computation of the paper's §IV-C.
//
// The graph is 1-D block-partitioned; to compute LCC(v) for an owned
// vertex v, the process fetches the adjacency list of every neighbour u —
// a one-sided get from u's owner whose size is u's degree. The same
// adjacency list is fetched once per appearance of u in an owned
// adjacency list, which is the data reuse CLaMPI exploits: the paper runs
// this kernel with the always-cache mode, since the graph is immutable.
//
// For an undirected graph, LCC(v) = Σ_{u ∈ adj(v)} |adj(v) ∩ adj(u)|
// divided by deg(v)·(deg(v)−1): every triangle edge (u,w) with
// u,w ∈ adj(v) is counted once in u's intersection and once in w's.
//
// Run counts each intersection by stamp, not by merge: it writes v into
// one mark slot per member of adj(v), then makes a single pass over each
// adj(u) — owned lists in the CSR, fetched lists still in their
// little-endian wire bytes — counting the slots that hold v. The pass has
// no data-dependent branch and no decode copy. The modelled compute
// charge is still the merge's len(adj(v)) + len(adj(u)) per neighbour.
// Reference, the serial oracle, stamps too, but enumerates otherwise: it
// counts each triangle once, at its lowest-ranked corner, over
// degree-ordered out-lists, where Run counts every wedge of each vertex
// over full lists. Every comparison of Run with Reference so checks one
// enumeration against another; the tests hold both to the per-vertex
// merge.
package lcc

import (
	"fmt"

	"clampi/internal/getter"
	"clampi/internal/graph"
	"clampi/internal/simtime"
	"clampi/internal/trace"
)

// Config tunes a run.
type Config struct {
	// ComputePerElem is the modelled CPU cost per element a sorted-merge
	// intersection touches; zero selects DefaultComputeCost.
	ComputePerElem simtime.Duration
	// Recorder, if non-nil, records every remote get (Fig. 3).
	Recorder *trace.Recorder
	// MaxVertices caps the owned vertices processed (0 = all); the
	// scaled-down benchmarks use it to bound runtime.
	MaxVertices int
}

// DefaultComputeCost is the modelled per-element intersection cost
// (~a few simple ALU ops per merge step on a 2.6 GHz core). It models the
// paper's sorted merge on the paper's core, not this host's stamp kernel:
// BenchmarkLCCKernel (R-MAT scale 13, EF 16, in-memory getter, 2-vCPU
// Xeon VM) reads 1.0–1.1 host ns per touched element for Run, fetch
// copies included, and 4.1–5.4 for the per-vertex merge; Reference's
// stamp-forward count takes 11.5–12.6 ms for the whole graph, the merge
// 450–590 ms.
const DefaultComputeCost = simtime.Nanosecond

// Result summarizes one rank's computation.
type Result struct {
	Vertices    int     // owned vertices processed
	SumLCC      float64 // Σ LCC(v) over processed vertices
	Wedges      int64   // Σ intersection counts (2 × triangle-edge incidences)
	Gets        int64   // total adjacency fetches (local + remote)
	RemoteGets  int64   // fetched via the window
	RemoteBytes int64
	Time        simtime.Duration // virtual time of the whole kernel
	CommTime    simtime.Duration // portion attributable to gets + flushes
}

// TimePerVertex returns the paper's Fig. 15 metric.
func (r Result) TimePerVertex() simtime.Duration {
	if r.Vertices == 0 {
		return 0
	}
	return r.Time / simtime.Duration(r.Vertices)
}

// Run computes the LCC of the vertices owned by this rank, fetching
// remote adjacency lists through gt and accounting on clock (the
// origin's clock, from rma.Endpoint.Clock()). The kernel is transport-
// agnostic: it runs identically over the simulated runtime and over a
// wire connection to clampi-serve. The caller must have opened a
// passive access epoch (LockAll) on the window behind gt.
//
// The stamp count equals |adj(v) ∩ adj(u)| only for adjacency lists that
// are strictly ascending — no vertex twice in one list — which is what
// graph.Build produces and CSR.Validate checks. Fetched ids are
// untrusted: one outside [0, d.G.N) ends the run with an error.
func Run(clock *simtime.Clock, d *graph.Dist, gt getter.Getter, cfg Config) (Result, error) {
	if cfg.ComputePerElem <= 0 {
		cfg.ComputePerElem = DefaultComputeCost
	}
	start := clock.Now()
	var res Result

	hi := d.Hi
	if cfg.MaxVertices > 0 && d.Lo+cfg.MaxVertices < hi {
		hi = d.Lo + cfg.MaxVertices
	}

	// The kernel is vectorized per vertex: pass 1 collects every remote
	// neighbour of v into one batched get (letting the caching layer
	// serve hits locally and coalesce the remaining misses into merged
	// per-target messages), one Flush completes the batch, and pass 2
	// consumes the adjacency lists in the same neighbour order as the
	// scalar kernel — so counts and LCC values are bit-identical to a
	// get-flush-consume loop (paper Fig. 15).
	var buf []byte           // arena holding all remote fetches of one vertex
	var ops []getter.BatchOp // batched remote gets of one vertex
	// mark[w] == v exactly while w ∈ adj(v) for the v being processed; no
	// vertex id is −1, and every later v overwrites only its own members.
	mark := make([]int32, d.G.N)
	for i := range mark {
		mark[i] = -1
	}
	for v := d.Lo; v < hi; v++ {
		adjV := d.G.Neighbors(v)
		deg := len(adjV)
		res.Vertices++
		if deg < 2 {
			continue
		}
		// Pass 1: size and stage the remote fetches of v.
		ops = ops[:0]
		total := 0
		for _, u := range adjV {
			if d.Owned(int(u)) {
				continue
			}
			owner, disp, size := d.RemoteLoc(int(u))
			// Dst is carved out of buf below, once total is known.
			ops = append(ops, getter.BatchOp{Target: owner, Disp: disp})
			total += size
		}
		if len(ops) > 0 {
			if cap(buf) < total {
				buf = make([]byte, total)
			}
			buf = buf[:total]
			off := 0
			k := 0
			for _, u := range adjV {
				if d.Owned(int(u)) {
					continue
				}
				_, _, size := d.RemoteLoc(int(u))
				ops[k].Dst = buf[off : off+size : off+size]
				off += size
				k++
			}
			commStart := clock.Now()
			if err := getter.GetBatch(gt, ops); err != nil {
				return res, err
			}
			if err := gt.Flush(); err != nil {
				return res, err
			}
			res.CommTime += clock.Now() - commStart
			res.RemoteGets += int64(len(ops))
			res.RemoteBytes += int64(total)
			if cfg.Recorder != nil {
				for i := range ops {
					cfg.Recorder.Record(ops[i].Target, ops[i].Disp, len(ops[i].Dst))
				}
			}
		}
		// Pass 2: stamp adj(v), then consume in neighbour order, exactly
		// like the scalar kernel.
		stamp := int32(v)
		for _, w := range adjV {
			mark[w] = stamp
		}
		var count int64
		var touched int64
		k := 0
		for _, u := range adjV {
			if d.Owned(int(u)) {
				adjU := d.G.Neighbors(int(u))
				count += int64(countStamped(mark, stamp, adjU))
				touched += int64(len(adjV) + len(adjU))
			} else {
				op := &ops[k]
				k++
				n, bad := countStampedLE(mark, stamp, op.Dst)
				if bad >= 0 {
					return res, badAdjacency(v, int(u), op.Target, op.Dst, bad)
				}
				count += int64(n)
				touched += int64(len(adjV) + len(op.Dst)/4)
			}
			res.Gets++
		}
		clock.Advance(simtime.Duration(touched) * cfg.ComputePerElem)
		res.Wedges += count
		res.SumLCC += float64(count) / float64(deg*(deg-1))
		for i := range ops {
			ops[i].Dst = nil
		}
	}
	res.Time = clock.Now() - start
	return res, nil
}

// countStamped returns how many members of adj carry the stamp v in mark.
func countStamped(mark []int32, v int32, adj []int32) int {
	n := 0
	for _, w := range adj {
		if mark[w] == v {
			n++
		}
	}
	return n
}

// countStampedLE is countStamped over a fetched adjacency list still in
// its wire form, little-endian int32 ids. The bytes come from another
// process: bad is −1, or the byte offset of the first id outside
// [0, len(mark)) — len(b) when b does not hold a whole number of ids.
func countStampedLE(mark []int32, v int32, b []byte) (n, bad int) {
	if len(b)%4 != 0 {
		return 0, len(b)
	}
	for i := 0; i < len(b); i += 4 {
		w := graph.Int32At(b[i : i+4])
		if uint32(w) >= uint32(len(mark)) { // also catches w < 0
			return n, i
		}
		if mark[w] == v {
			n++
		}
	}
	return n, -1
}

// badAdjacency describes what countStampedLE refused at byte offset bad
// of neighbour u's fetched list.
func badAdjacency(v, u, target int, fetched []byte, bad int) error {
	if bad == len(fetched) {
		return fmt.Errorf("lcc: vertex %d: adjacency of neighbour %d fetched from rank %d is %d bytes, not a multiple of 4",
			v, u, target, len(fetched))
	}
	return fmt.Errorf("lcc: vertex %d: adjacency of neighbour %d fetched from rank %d holds vertex id %d at entry %d",
		v, u, target, graph.Int32At(fetched[bad:]), bad/4)
}

// Reference computes LCC(v) for every vertex of g serially — the oracle
// the distributed kernel is validated against, so deliberately not Run's
// enumeration. It counts each triangle once with the forward algorithm
// (Schank & Wagner, WEA 2005): vertices are ranked by (degree, id), out(v)
// holds the neighbours of v ranked above it, and a triangle is found at
// its lowest-ranked corner v, as a member w of out(v) that is also in
// out(u) for some u ∈ out(v). Membership is a byte mark per vertex, set
// for out(v) and cleared after v; the pass over out(u) adds the mark to
// the counts with no data-dependent branch. Run instead counts every
// wedge of each vertex over full adjacency lists, so the two check one
// enumeration against another. Σ_{u ∈ adj(v)} |adj(v) ∩ adj(u)| is twice
// the triangles at v, so the division is Run's and the values are the
// same floats as the per-vertex merge's. g's lists must be strictly
// ascending.
func Reference(g *graph.CSR) []float64 {
	above := func(u, v int) bool { // u ranks above v
		du, dv := g.Degree(u), g.Degree(v)
		return du > dv || du == dv && u > v
	}
	outOffs := make([]int64, g.N+1)
	outAdj := make([]int32, 0, len(g.Adj)/2) // one end of each edge ranks above the other
	for v := 0; v < g.N; v++ {
		for _, u := range g.Neighbors(v) {
			if above(int(u), v) {
				outAdj = append(outAdj, u)
			}
		}
		outOffs[v+1] = int64(len(outAdj))
	}
	out := func(v int) []int32 { return outAdj[outOffs[v]:outOffs[v+1]] }

	tri := make([]int64, g.N) // triangles at each vertex
	mark := make([]byte, g.N) // 1 exactly for the members of out(v)
	for v := 0; v < g.N; v++ {
		a := out(v)
		for _, w := range a {
			mark[w] = 1
		}
		var tv int64
		for _, u := range a {
			var tu int64
			for _, w := range out(int(u)) {
				c := int64(mark[w])
				tu += c
				tri[w] += c
			}
			tri[u] += tu
			tv += tu
		}
		tri[v] += tv
		for _, w := range a {
			mark[w] = 0
		}
	}
	lcc := make([]float64, g.N)
	for v := range lcc {
		if deg := g.Degree(v); deg >= 2 {
			lcc[v] = float64(2*tri[v]) / float64(deg*(deg-1))
		}
	}
	return lcc
}
