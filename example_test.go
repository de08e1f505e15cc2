package clampi_test

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"clampi"
)

// ExampleWrap shows the canonical miss-then-hit flow on a caching window.
func ExampleWrap() {
	err := clampi.Run(2, clampi.RunConfig{}, func(r *clampi.Rank) error {
		region := make([]byte, 1024)
		for i := range region {
			region[i] = byte(i)
		}
		w, err := clampi.Create(r, region, nil, clampi.WithMode(clampi.AlwaysCache))
		if err != nil {
			return err
		}
		defer w.Free()
		if r.ID() != 0 {
			r.Barrier()
			return nil
		}
		if err := w.LockAll(); err != nil {
			return err
		}
		buf := make([]byte, 16)
		_ = w.GetBytes(buf, 1, 0) // miss
		_ = w.FlushAll()
		_ = w.GetBytes(buf, 1, 0) // hit
		_ = w.UnlockAll()
		s := w.Stats()
		fmt.Printf("gets=%d hits=%d\n", s.Gets, s.Hits)
		r.Barrier()
		return nil
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output: gets=2 hits=1
}

// ExampleWindow_Invalidate shows the paper's user-defined mode: cache
// across a group of read-only epochs, invalidate when they end.
func ExampleWindow_Invalidate() {
	err := clampi.Run(2, clampi.RunConfig{}, func(r *clampi.Rank) error {
		w, _, err := clampi.Allocate(r, 256, clampi.Info{clampi.InfoKey: "always-cache"})
		if err != nil {
			return err
		}
		defer w.Free()
		if r.ID() != 0 {
			r.Barrier()
			return nil
		}
		if err := w.Lock(1); err != nil {
			return err
		}
		buf := make([]byte, 8)
		for epoch := 0; epoch < 3; epoch++ {
			_ = w.GetBytes(buf, 1, 0)
			_ = w.Flush(1) // closes the epoch; entries persist
		}
		w.Invalidate() // the read-only phase ends
		_ = w.Unlock(1)
		s := w.Stats()
		fmt.Printf("hits=%d invalidations=%d\n", s.Hits, s.Invalidations)
		r.Barrier()
		return nil
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output: hits=2 invalidations=1
}

// Example_quickstart is the smallest complete program. Four ranks each
// expose 1 MB through a caching window and read a block from their right
// neighbour twice: the first read is a miss (a remote get), the second a
// hit served from the local cache. Eight adjacent uncached blocks issued
// as one batch coalesce into a single remote message. All times are
// virtual (the simulated LogGP network), so they repeat on every host.
func Example_quickstart() {
	const ranks = 4
	lines := make([]string, ranks)
	err := clampi.Run(ranks, clampi.RunConfig{}, func(r *clampi.Rank) error {
		region := make([]byte, 1<<20)
		for i := range region {
			region[i] = byte(r.ID() + i)
		}
		w, err := clampi.Create(r, region, nil,
			clampi.WithMode(clampi.AlwaysCache), // region is read-only
			clampi.WithStorageBytes(4<<20))
		if err != nil {
			return err
		}
		defer w.Free()
		if err := w.LockAll(); err != nil {
			return err
		}
		neighbour := (r.ID() + 1) % r.Size()
		buf := make([]byte, 64<<10)

		// timed returns the virtual time fn and the flush after it take.
		timed := func(fn func() error) (clampi.Duration, error) {
			t0 := r.Clock().Now()
			if err := fn(); err != nil {
				return 0, err
			}
			err := w.FlushAll() // the destination buffers are valid from here
			return r.Clock().Now() - t0, err
		}
		get := func() error { return w.GetBytes(buf, neighbour, 0) }
		miss, err := timed(get)
		if err != nil {
			return err
		}
		hit, err := timed(get)
		if err != nil {
			return err
		}

		const blk = 4 << 10
		bbuf := make([]byte, 8*blk)
		ops := make([]clampi.GetOp, 8)
		for i := range ops {
			ops[i] = clampi.GetOp{Dst: bbuf[i*blk : (i+1)*blk], Target: neighbour, Disp: 512<<10 + i*blk}
		}
		batch, err := timed(func() error { return w.GetBatch(ops) })
		if err != nil {
			return err
		}
		if err := w.UnlockAll(); err != nil {
			return err
		}
		s := w.Stats()
		lines[r.ID()] = fmt.Sprintf("rank %d: miss %v hit %v speedup %.1fx batch8 %v (%.0f misses/message, gets=%d hits=%d)",
			r.ID(), miss, hit, float64(miss)/float64(hit), batch, s.BatchCoalesceRatio(), s.Gets, s.Hits)
		return nil
	})
	if err != nil {
		fmt.Println(err)
	}
	for _, l := range lines {
		fmt.Println(l)
	}
	// Output:
	// rank 0: miss 10.907µs hit 2.284µs speedup 4.8x batch8 7.338µs (8 misses/message, gets=10 hits=1)
	// rank 1: miss 10.907µs hit 2.284µs speedup 4.8x batch8 7.338µs (8 misses/message, gets=10 hits=1)
	// rank 2: miss 10.907µs hit 2.284µs speedup 4.8x batch8 7.338µs (8 misses/message, gets=10 hits=1)
	// rank 3: miss 10.907µs hit 2.284µs speedup 4.8x batch8 7.338µs (8 misses/message, gets=10 hits=1)
}

// Example_wire layers the cache over a real socket: an in-process server
// on a loopback port, dialled back with the same options Create takes.
// The first read of a block is a framed RPC, the repeat a local hit. A
// miss over the wire charges its wall latency to the virtual clock, so
// only counts are printed. Against a standalone daemon
// (clampi-serve -listen 127.0.0.1:9723 -ranks 4 -size 1048576 -fill pattern)
// a client dials its address and needs no window name.
func Example_wire() {
	const ranks, regionSize = 4, 1 << 20
	regions := clampi.MakeRegions(ranks, regionSize)
	for t := range regions {
		for i := range regions[t] {
			regions[t][i] = byte(t + i)
		}
	}
	srv, err := clampi.Serve(clampi.ServeConfig{
		Network: "tcp",
		Addr:    "127.0.0.1:0",
		Windows: []clampi.WindowSpec{{Name: "demo", Regions: regions}},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	defer srv.Shutdown(2 * time.Second)

	w, err := clampi.Dial(srv.Addr().String(),
		clampi.WithMode(clampi.AlwaysCache),
		clampi.WithStorageBytes(4<<20),
		clampi.WithRetry(clampi.DefaultRetryPolicy()),
		clampi.WithWindowName("demo"))
	if err != nil {
		fmt.Println(err)
		return
	}
	defer w.Free()
	ep := w.Raw().Endpoint()
	fmt.Printf("connected as rank %d of %d\n", ep.ID(), ep.Size())

	buf := make([]byte, 64<<10)
	neighbour := (ep.ID() + 1) % ep.Size()
	err = w.LockAll()
	for i := 0; i < 2 && err == nil; i++ {
		if err = w.GetBytes(buf, neighbour, 0); err == nil {
			err = w.FlushAll()
		}
	}
	if err == nil {
		err = w.UnlockAll()
	}
	if err != nil {
		fmt.Println(err)
		return
	}
	s := w.Stats()
	fmt.Printf("gets=%d hits=%d, %dB over the wire\n", s.Gets, s.Hits, s.BytesFromNetwork)
	// Output:
	// connected as rank 0 of 4
	// gets=2 hits=1, 65536B over the wire
}

// Example_pagerank is distributed PageRank with per-iteration caching,
// the BSP pattern the paper's user-defined mode targets (§III-A). Each
// iteration every rank publishes its vertices' values, then fetches its
// remote neighbours' values with one-sided gets in a read-only phase.
// Hub vertices are read over and over, so always-cache mode turns the
// repeats into local copies. The values change between iterations, so
// the cache is invalidated when each read-only phase ends, as
// CLAMPI_Invalidate is in the paper's Listing 1.
func Example_pagerank() {
	const (
		ranks      = 4
		vertices   = 1 << 10
		damping    = 0.85
		iterations = 8
	)
	adj := pagerankGraph(vertices, 12)
	owner := func(v int32) int { return int(v) * ranks / vertices }
	base := func(rank int) int32 { return int32(rank * vertices / ranks) }

	err := clampi.Run(ranks, clampi.RunConfig{}, func(r *clampi.Rank) error {
		lo, hi := base(r.ID()), base(r.ID()+1)
		n := int(hi - lo)
		region := make([]byte, n*8)
		w, err := clampi.Create(r, region, nil,
			clampi.WithMode(clampi.AlwaysCache),
			clampi.WithStorageBytes(1<<20))
		if err != nil {
			return err
		}
		defer w.Free()

		pr, next := make([]float64, n), make([]float64, n)
		for i := range pr {
			pr[i] = 1.0 / vertices
		}
		buf := make([]byte, 8)
		for iter := 0; iter < iterations; iter++ {
			// Publish this iteration's contributions, then enter the
			// read-only phase.
			for i, v := range pr {
				binary.LittleEndian.PutUint64(region[i*8:], math.Float64bits(v/float64(len(adj[int(lo)+i]))))
			}
			r.Barrier()
			if err := w.LockAll(); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				sum := 0.0
				for _, u := range adj[int(lo)+i] {
					o := owner(u)
					if o == r.ID() {
						sum += pr[u-lo] / float64(len(adj[u]))
						continue
					}
					if err := w.GetBytes(buf, o, int(u-base(o))*8); err != nil {
						return err
					}
					if err := w.FlushAll(); err != nil {
						return err
					}
					sum += math.Float64frombits(binary.LittleEndian.Uint64(buf))
				}
				next[i] = (1-damping)/vertices + damping*sum
			}
			w.Invalidate() // the values are about to change
			if err := w.UnlockAll(); err != nil {
				return err
			}

			delta := 0.0
			for i := range pr {
				delta += math.Abs(next[i] - pr[i])
			}
			pr, next = next, pr
			total := r.AllreduceSum(delta)
			if r.ID() == 0 {
				s := w.Stats()
				fmt.Printf("iter %d: Δ=%.2e hit rate %.0f%% (gets=%d invalidations=%d)\n",
					iter, total, 100*s.HitRate(), s.Gets, s.Invalidations)
			}
			r.Barrier()
		}
		return nil
	})
	if err != nil {
		fmt.Println(err)
	}
	// Output:
	// iter 0: Δ=6.12e-01 hit rate 78% (gets=3540 invalidations=1)
	// iter 1: Δ=1.70e-01 hit rate 78% (gets=7080 invalidations=2)
	// iter 2: Δ=6.14e-02 hit rate 78% (gets=10620 invalidations=3)
	// iter 3: Δ=2.31e-02 hit rate 78% (gets=14160 invalidations=4)
	// iter 4: Δ=9.13e-03 hit rate 78% (gets=17700 invalidations=5)
	// iter 5: Δ=3.71e-03 hit rate 78% (gets=21240 invalidations=6)
	// iter 6: Δ=1.53e-03 hit rate 78% (gets=24780 invalidations=7)
	// iter 7: Δ=6.43e-04 hit rate 78% (gets=28320 invalidations=8)
}

// pagerankGraph builds a skewed undirected graph in which low vertex ids
// are hubs, and no vertex is left without a neighbour.
func pagerankGraph(vertices, avgDegree int) [][]int32 {
	rng := rand.New(rand.NewSource(11))
	adj := make([][]int32, vertices)
	seen := make(map[int64]bool)
	for v := int32(1); v < int32(vertices); v++ {
		for d := 0; d < avgDegree/2; d++ {
			u := int32(rng.Intn(int(v)+1)) * int32(rng.Intn(int(v)+1)) / (v + 1)
			key := int64(u)<<32 | int64(v)
			if u == v || seen[key] {
				continue
			}
			seen[key] = true
			adj[v] = append(adj[v], u)
			adj[u] = append(adj[u], v)
		}
	}
	for v := int32(0); v < int32(vertices); v++ {
		if len(adj[v]) == 0 {
			t := (v + 1) % int32(vertices)
			adj[v] = append(adj[v], t)
			adj[t] = append(adj[t], v)
		}
	}
	return adj
}
