package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"clampi/internal/experiments"
	"clampi/internal/lsb"
	"clampi/internal/rma"
)

// runLatency prints Fig. 1: RMA get latency per message size and
// process/node mapping on the modelled Cray Cascade network.
func runLatency(args []string, stdout, stderr io.Writer) error {
	fs, s := newFlags("latency", stderr, obsvFlags)
	maxSize := fs.Int("max", 128<<10, "largest message size in bytes")
	if err := s.parse(fs, args); err != nil {
		return err
	}
	var sizes []int
	for size := 8; size <= *maxSize; size *= 2 {
		sizes = append(sizes, size)
	}
	_, tbl, err := experiments.Fig1Latency(sizes)
	if err := emit(stdout, tbl, err); err != nil {
		return fmt.Errorf("fig1: %w", err)
	}
	return s.writeObservability()
}

// runMicro prints the micro-benchmark figures of §IV-A: access-type
// costs (Fig. 7), communication overlap (Fig. 8), adaptive parameter
// selection (Fig. 9), external fragmentation (Fig. 10) and victim
// selection (Fig. 11). -paper selects N=1K and Z=20K (Z=100K for Figs.
// 10-11). -json also runs the headline micro benchmark and writes its
// virtual-time figures to BENCH_micro.json in the working directory.
func runMicro(args []string, stdout, stderr io.Writer) error {
	fs, s := newFlags("micro", stderr, obsvFlags|paperFlag)
	fig := fs.String("fig", "all", "figure to regenerate: all, 7, 8, 9, 10 or 11")
	n := fs.Int("n", 512, "distinct gets N")
	z := fs.Int("z", 8192, "sequence length Z")
	reps := fs.Int("reps", 50, "repetitions per Fig 7 access-type sample")
	jsonOut := fs.Bool("json", false, "additionally run the headline micro benchmark and write BENCH_micro.json")
	if err := s.parse(fs, args); err != nil {
		return err
	}
	if s.paper {
		*n, *z = 1000, 20000
	}
	zLong := *z // Figs. 10-11 run the paper's longer sequence
	if s.paper {
		zLong = 100000
	}

	err := runFigures(stdout, "fig", *fig, []figure{
		{"7", func(w io.Writer) error {
			_, tbl, err := experiments.Fig7AccessCosts([]int{256, 4096, 16384, 65536}, *reps)
			return emit(w, tbl, err)
		}},
		{"8", func(w io.Writer) error {
			_, tbl, err := experiments.Fig8Overlap([]int{512, 4096, 16384, 65536})
			return emit(w, tbl, err)
		}},
		{"9", func(w io.Writer) error {
			_, tbl, err := experiments.Fig9Adaptive([]int{*n / 4, *n / 2, *n, 2 * *n, 4 * *n}, *n, *z)
			return emit(w, tbl, err)
		}},
		{"10", func(w io.Writer) error {
			_, tbl, err := experiments.Fig10Fragmentation(*n, zLong, *n*3/2, 2<<20, 25)
			return emit(w, tbl, err)
		}},
		{"11", func(w io.Writer) error {
			_, tbl, err := experiments.Fig11VictimSelection([]int{*n, 2 * *n, 4 * *n, 8 * *n, 16 * *n}, *n, zLong, 2<<20)
			return emit(w, tbl, err)
		}},
	})
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := writeMicroBench(stdout, *n, *z); err != nil {
			return fmt.Errorf("micro bench: %w", err)
		}
	}
	return s.writeObservability()
}

// writeMicroBench runs experiments.MicroBench, writes BENCH_micro.json
// and prints its headline numbers.
func writeMicroBench(w io.Writer, n, z int) error {
	res, err := experiments.MicroBench(n, z)
	if err != nil {
		return err
	}
	buf, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile("BENCH_micro.json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "BENCH_micro.json: %d ops, hit rate %.3f, %.1f virtual ns/op, coalesce ratio %.1f\n",
		res.Ops, res.HitRate, res.VirtualNsPerOp, res.BatchCoalesceRatio)
	for _, class := range rma.DistanceClassNames {
		if d, ok := res.ByDistance[class]; ok {
			fmt.Fprintf(w, "  by_distance %-12s %3d gets  %3d hits  %3d misses  %7.1f virtual ns/op\n",
				class, d.Gets, d.Hits, d.Misses, d.VirtualNsPerOp)
		}
	}
	return nil
}

// runNBody prints the Barnes-Hut figures of §IV-B: the get-reuse
// histogram (Fig. 2), force time vs cache parameters (Fig. 12), access
// statistics (Fig. 13) and weak scaling (Fig. 14). -paper selects Fig. 2
// at N=4000, P=4; Figs. 12-13 at N=20K, P=16, |S_w| up to 4 MB; Fig. 14
// at 1.5K bodies/PE, P=16..128 — a long run.
func runNBody(args []string, stdout, stderr io.Writer) error {
	fs, s := newFlags("nbody", stderr, obsvFlags|paperFlag)
	fig := fs.String("fig", "all", "figure to regenerate: all, 2, 12, 13 or 14")
	n := fs.Int("n", 2000, "bodies N (Figs 12-13)")
	p := fs.Int("p", 4, "processing elements P (Figs 12-13)")
	if err := s.parse(fs, args); err != nil {
		return err
	}

	err := runFigures(stdout, "fig", *fig, []figure{
		{"2", func(w io.Writer) error {
			nn := 1000
			if s.paper {
				nn = 4000
			}
			_, tbl, err := experiments.Fig2NBodyReuse(nn, 4)
			return emit(w, tbl, err)
		}},
		{"12", func(w io.Writer) error {
			nn, pp, slots := *n, *p, 1<<13
			sws := []int{64 << 10, 256 << 10, 1 << 20}
			if s.paper {
				nn, pp, slots = 20000, 16, 1<<15
				sws = []int{1 << 20, 2 << 20, 4 << 20}
			}
			_, tbl, err := experiments.Fig12NBodyParams(nn, pp, slots, sws)
			return emit(w, tbl, err)
		}},
		{"13", func(w io.Writer) error {
			nn, pp, sw := *n, *p, 256<<10
			iws := []int{256, 1 << 12, 1 << 15}
			if s.paper {
				nn, pp, sw = 20000, 16, 1<<20
				iws = []int{1 << 10, 20 << 10, 1 << 17}
			}
			_, tbl, err := experiments.Fig13NBodyStats(nn, pp, sw, iws)
			return emit(w, tbl, err)
		}},
		{"14", func(w io.Writer) error {
			perPE, slots, sw := 200, 1<<13, 512<<10
			ps := []int{2, 4, 8}
			if s.paper {
				perPE, slots, sw = 1500, 30<<10, 2<<20
				ps = []int{16, 32, 64, 128}
			}
			_, tbl, err := experiments.Fig14NBodyWeak(perPE, ps, slots, sw)
			return emit(w, tbl, err)
		}},
	})
	if err != nil {
		return err
	}
	return s.writeObservability()
}

// runLCC prints the Local Clustering Coefficient figures of §IV-C: the
// transfer-size distribution (Fig. 3), parameter selection (Fig. 15),
// access statistics (Fig. 16) and weak scaling with its statistics (Figs.
// 17-18), plus the cost-aware comparison (-fig locality): cost-aware
// admission and eviction versus the locality-blind baseline on a
// capacity-bound instance under skewed rank placement (DESIGN.md §15).
// Like Figs. 3 and 17 it fixes its own instance — scale 14, EF 8, P 8, 4
// ranks/node, 512 vertices/rank — since the -scale/-p defaults of Figs.
// 15-16 leave the cache unpressured and the two systems identical.
//
// -paper selects Fig. 3 at 2^16 vertices, 2^20 edges, P=32; Figs. 15-16
// at 2^20 vertices, 2^24 edges, P=32; Figs. 17-18 at scales 19..22,
// EF=16, P=16..128 — a very long run.
func runLCC(args []string, stdout, stderr io.Writer) error {
	fs, s := newFlags("lcc", stderr, obsvFlags|paperFlag)
	fig := fs.String("fig", "all", "figure to regenerate: all, 3, 15, 16, 17 (includes 18) or locality")
	scale := fs.Int("scale", 12, "R-MAT scale (vertices = 2^scale) for Figs 15-16")
	ef := fs.Int("ef", 8, "R-MAT edge factor")
	p := fs.Int("p", 4, "processing elements P")
	maxVerts := fs.Int("maxverts", 256, "max vertices per rank (0 = all)")
	if err := s.parse(fs, args); err != nil {
		return err
	}

	err := runFigures(stdout, "fig", *fig, []figure{
		{"3", func(w io.Writer) error {
			sc, e, pp, mv := 12, 16, *p, *maxVerts
			if s.paper {
				sc, e, pp, mv = 16, 16, 32, 0
			}
			_, tbl, err := experiments.Fig3LCCSizes(sc, e, pp, mv)
			return emit(w, tbl, err)
		}},
		{"15", func(w io.Writer) error {
			sc, e, pp, mv := *scale, *ef, *p, *maxVerts
			sws := []int{64 << 10, 1 << 20}
			iws := []int{256, 1 << 13}
			if s.paper {
				sc, e, pp, mv = 20, 16, 32, 0
				sws = []int{64 << 20, 128 << 20}
				iws = []int{64 << 10, 256 << 10}
			}
			g := experiments.BuildLCCGraph(sc, e, 1234)
			_, tbl, err := experiments.Fig15LCCParams(g, pp, mv, sws, iws)
			return emit(w, tbl, err)
		}},
		{"16", func(w io.Writer) error {
			sc, e, pp, mv, sw := *scale, *ef, *p, *maxVerts, 64<<10
			iws := []int{256, 1 << 13}
			if s.paper {
				sc, e, pp, mv, sw = 20, 16, 32, 0, 64<<20
				iws = []int{64 << 10, 256 << 10}
			}
			g := experiments.BuildLCCGraph(sc, e, 1234)
			_, tbl, err := experiments.Fig16LCCStats(g, pp, mv, sw, iws)
			return emit(w, tbl, err)
		}},
		{"locality", func(w io.Writer) error {
			sc, e, pp, rpn, mv := 14, 8, 8, 4, 512
			if s.paper {
				sc, e, pp, mv = 16, 16, 32, 0
			}
			blind, aware, tbl, err := experiments.LCCLocalityCompare(sc, e, pp, rpn, mv, 1<<12, 1<<18)
			if err := emit(w, tbl, err); err != nil {
				return err
			}
			fmt.Fprintf(w, "cost-aware: comm %d -> %d virtual ns (%.1f%%); evictions %d -> %d, %d cheap skips\n",
				blind.CommVirtualNs, aware.CommVirtualNs,
				100*float64(aware.CommVirtualNs)/float64(blind.CommVirtualNs),
				blind.Evictions, aware.Evictions, aware.CheapSkips)
			return nil
		}},
		{"17", func(w io.Writer) error {
			base, e, mv, slots, sw := 10, *ef, *maxVerts, 1<<13, 1<<20
			ps := []int{2, 4, 8}
			if s.paper {
				base, e, mv, slots, sw = 19, 16, 0, 128<<10, 128<<20
				ps = []int{16, 32, 64, 128}
			}
			_, t17, t18, err := experiments.Fig17And18LCCWeak(base, e, ps, mv, slots, sw)
			if err := emit(w, t17, err); err != nil {
				return err
			}
			fmt.Fprint(w, t18)
			return nil
		}},
	})
	if err != nil {
		return err
	}
	return s.writeObservability()
}

// runExt prints the experiments that go beyond the paper's figures: the
// ablations of DESIGN.md §6 and the extension workloads (pull-BFS,
// persistent-window Barnes-Hut).
func runExt(args []string, stdout, stderr io.Writer) error {
	fs, s := newFlags("ext", stderr, obsvFlags)
	exp := fs.String("exp", "all", "experiment: all, samplesize, allocpolicy, cuckoo, bfs or persistent")
	csv := fs.Bool("csv", false, "emit CSV instead of aligned tables")
	if err := s.parse(fs, args); err != nil {
		return err
	}
	// out prints tbl in the selected format unless its driver failed.
	out := func(w io.Writer, tbl *lsb.Table, err error) error {
		if err != nil {
			return err
		}
		if *csv {
			fmt.Fprint(w, tbl.CSV())
		} else {
			fmt.Fprint(w, tbl)
		}
		return nil
	}

	err := runFigures(stdout, "exp", *exp, []figure{
		{"samplesize", func(w io.Writer) error {
			_, tbl, err := experiments.AblationSampleSize([]int{1, 4, 16, 64, 256}, 256, 4096)
			return out(w, tbl, err)
		}},
		{"allocpolicy", func(w io.Writer) error {
			_, tbl, err := experiments.AblationAllocPolicy(256, 8192)
			return out(w, tbl, err)
		}},
		{"cuckoo", func(w io.Writer) error {
			_, tbl, err := experiments.AblationCuckooSearch([]int{4, 16, 64, 256, 1024}, 4096, 5)
			return out(w, tbl, err)
		}},
		{"bfs", func(w io.Writer) error {
			_, tbl, err := experiments.ExtensionBFS(11, 8, 4, 0)
			return out(w, tbl, err)
		}},
		{"persistent", func(w io.Writer) error {
			_, tbl, err := experiments.ExtensionPersistentWindow(400, 2, 5)
			return out(w, tbl, err)
		}},
	})
	if err != nil {
		return err
	}
	return s.writeObservability()
}
