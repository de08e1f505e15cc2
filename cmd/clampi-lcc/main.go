// Command clampi-lcc regenerates the Local Clustering Coefficient figures
// of the paper (§IV-C): the transfer-size distribution (Fig. 3),
// parameter selection (Fig. 15), access statistics (Fig. 16) and weak
// scaling with its statistics (Figs. 17-18), plus the cost-aware
// comparison (-fig locality): cost-aware admission and eviction versus
// the locality-blind baseline on a capacity-bound instance under skewed
// rank placement (DESIGN.md §15). Like Figs. 3 and 17 it fixes its own
// instance — scale 14, EF 8, P 8, 4 ranks/node, 512 vertices/rank — since
// the -scale/-p defaults of Figs. 15-16 leave the cache unpressured and
// the two systems identical.
//
// Usage:
//
//	clampi-lcc [-fig all|3|15|16|17|locality] [-paper] [-scale 12] [-ef 8] [-p 4]
//
// -paper selects the paper's parameters (Fig. 3: 2^16 vertices, 2^20
// edges, P=32; Figs 15-16: 2^20 vertices, 2^24 edges, P=32; Figs 17-18:
// scales 19..22, EF=16, P=16..128). Expect a very long single-core run
// at that scale.
package main

import (
	"flag"
	"fmt"
	"log"

	"clampi/internal/experiments"
	"clampi/internal/mpi"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: all, 3, 15, 16, 17 (includes 18) or locality")
	paper := flag.Bool("paper", false, "use the paper's full-scale parameters")
	scale := flag.Int("scale", 12, "R-MAT scale (vertices = 2^scale) for Figs 15-16")
	ef := flag.Int("ef", 8, "R-MAT edge factor")
	p := flag.Int("p", 4, "processing elements P")
	maxVerts := flag.Int("maxverts", 256, "max vertices per rank (0 = all)")
	mode := flag.String("mode", "fidelity", "execution mode: fidelity (serialized, calibration-grade timing) or throughput (concurrent ranks)")
	metricsOut := flag.String("metrics", "", "write merged cache metrics to this file (.json selects JSON, anything else Prometheus text format)")
	traceOut := flag.String("trace", "", "write the cache-event trace to this file as JSON lines")
	flag.Parse()

	m, err := mpi.ParseExecMode(*mode)
	if err != nil {
		log.Fatal(err)
	}
	experiments.SetExecMode(m)
	if *metricsOut != "" || *traceOut != "" {
		experiments.EnableObservability(0)
	}

	run := func(name string, f func() error) {
		if *fig != "all" && *fig != name {
			return
		}
		if err := f(); err != nil {
			log.Fatalf("fig %s: %v", name, err)
		}
	}

	run("3", func() error {
		s, e, pp, mv := 12, 16, *p, *maxVerts
		if *paper {
			s, e, pp, mv = 16, 16, 32, 0
		}
		_, tbl, err := experiments.Fig3LCCSizes(s, e, pp, mv)
		if err != nil {
			return err
		}
		fmt.Print(tbl)
		return nil
	})

	run("15", func() error {
		s, e, pp, mv := *scale, *ef, *p, *maxVerts
		sws := []int{64 << 10, 1 << 20}
		iws := []int{256, 1 << 13}
		if *paper {
			s, e, pp, mv = 20, 16, 32, 0
			sws = []int{64 << 20, 128 << 20}
			iws = []int{64 << 10, 256 << 10}
		}
		g := experiments.BuildLCCGraph(s, e, 1234)
		_, tbl, err := experiments.Fig15LCCParams(g, pp, mv, sws, iws)
		if err != nil {
			return err
		}
		fmt.Print(tbl)
		return nil
	})
	run("16", func() error {
		s, e, pp, mv, sw := *scale, *ef, *p, *maxVerts, 64<<10
		iws := []int{256, 1 << 13}
		if *paper {
			s, e, pp, mv, sw = 20, 16, 32, 0, 64<<20
			iws = []int{64 << 10, 256 << 10}
		}
		g := experiments.BuildLCCGraph(s, e, 1234)
		_, tbl, err := experiments.Fig16LCCStats(g, pp, mv, sw, iws)
		if err != nil {
			return err
		}
		fmt.Print(tbl)
		return nil
	})
	run("locality", func() error {
		s, e, pp, rpn, mv := 14, 8, 8, 4, 512
		if *paper {
			s, e, pp, mv = 16, 16, 32, 0
		}
		blind, aware, tbl, err := experiments.LCCLocalityCompare(s, e, pp, rpn, mv, 1<<12, 1<<18)
		if err != nil {
			return err
		}
		fmt.Print(tbl)
		fmt.Printf("cost-aware: comm %d -> %d virtual ns (%.1f%%); evictions %d -> %d, %d cheap skips\n",
			blind.CommVirtualNs, aware.CommVirtualNs,
			100*float64(aware.CommVirtualNs)/float64(blind.CommVirtualNs),
			blind.Evictions, aware.Evictions, aware.CheapSkips)
		return nil
	})
	run("17", func() error {
		base, e, mv, slots, sw := 10, *ef, *maxVerts, 1<<13, 1<<20
		ps := []int{2, 4, 8}
		if *paper {
			base, e, mv, slots, sw = 19, 16, 0, 128<<10, 128<<20
			ps = []int{16, 32, 64, 128}
		}
		_, t17, t18, err := experiments.Fig17And18LCCWeak(base, e, ps, mv, slots, sw)
		if err != nil {
			return err
		}
		fmt.Print(t17)
		fmt.Print(t18)
		return nil
	})

	if err := experiments.WriteObservability(*metricsOut, *traceOut); err != nil {
		log.Fatalf("observability: %v", err)
	}
}
