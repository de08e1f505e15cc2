package main

import (
	"fmt"
	"io"
)

// report is everything one run of one workload measured.
type report struct {
	w    *workloadDef
	seed int64

	setups []float64   // seconds, one per set-up
	walls  []float64   // seconds, one per untraced rep
	ops    int64       // ops of one rep (identical across reps)
	vns    float64     // virtual ns per op of the untraced reps
	stats  statsPerRep // cache counters of one untraced rep

	attempted, failed int64

	layers map[string]float64 // per-layer metrics, traced runs only
	stack  []stackRow
	model  []modelRow
	notes  []string
}

type stackRow struct {
	layer string
	ns    float64 // self time per op
	share float64 // of the traced wall
}

func (r *report) addReps(reps []repResult) {
	for _, rp := range reps {
		r.walls = append(r.walls, rp.wall.Seconds())
		r.attempted += rp.ops + rp.checked
		r.failed += rp.failed
	}
	r.ops = reps[0].ops
	r.vns = ratio(float64(reps[0].virtual), float64(reps[0].ops))
	r.stats = statsPerRep{reps[0].stats, reps[0].ops}
}

func (r *report) wallS() float64 { return fastest(r.walls) }

func (r *report) endToEnd() map[string]float64 {
	return map[string]float64{
		"setup_s":   fastest(r.setups),
		"wall_s":    r.wallS(),
		"ops_per_s": ratio(float64(r.ops), r.wallS()),
	}
}

// result is the driver's object: the end-to-end metrics of an untraced
// run, every per-layer metric of a traced one.
func (r *report) result(traced bool) result {
	res := result{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]value{}}
	defs, vals := endToEnd, r.endToEnd()
	if traced {
		defs, vals = perLayer, r.layers
	}
	for _, d := range defs {
		res.Metrics[d.Name] = value{vals[d.Name], d.Unit}
	}
	return res
}

func (r *report) print(out io.Writer) {
	fmt.Fprintf(out, "== %s  seed %d  (%s)\n", r.w.Name, r.seed, r.w.Why)
	e2e := r.endToEnd()
	fmt.Fprintf(out, "   reps %d x %d ops  wall_s %.6f (first decile; median %.6f, spread %.3f)  ops_per_s %.1f  virtual_ns_per_op %.2f  failed %d of %d\n",
		len(r.walls), r.ops, e2e["wall_s"], median(r.walls), spread(r.walls), e2e["ops_per_s"], r.vns, r.failed, r.attempted)
	if len(r.setups) > 0 {
		fmt.Fprintf(out, "   setup_s %.6f (first decile of %d, median %.6f)\n", e2e["setup_s"], len(r.setups), median(r.setups))
	}
	if r.layers == nil {
		return
	}
	fmt.Fprintln(out, "   layer self-time stack of the traced rep (ns per op, share of traced wall):")
	for _, s := range r.stack {
		fmt.Fprintf(out, "     %-10s %12.1f  %6.1f%%\n", s.layer, s.ns, 100*s.share)
	}
	flag := ""
	if r.layers["bench.residual_share"] > 0.10 {
		flag = "  <-- above the 0.10 target"
	}
	fmt.Fprintf(out, "     residual_share %.4f%s   trace_overhead_ratio %.3f\n",
		r.layers["bench.residual_share"], flag, r.layers["bench.trace_overhead_ratio"])
	for _, d := range perLayer {
		fmt.Fprintf(out, "   %-34s %16.4f %s\n", d.Name, r.layers[d.Name], d.Unit)
	}
	if len(r.model) > 0 {
		fmt.Fprintln(out, "   model vs host (internal/core/costs.go):")
		fmt.Fprintf(out, "     %-22s %10s %12s %8s\n", "constant", "model vns", "host ns", "ratio")
		for _, m := range r.model {
			fmt.Fprintf(out, "     %-22s %10d %12.1f %8.2f\n", m.constant, m.modeled, m.hostNs, ratio(m.hostNs, float64(m.modeled)))
		}
	}
	for _, n := range r.notes {
		fmt.Fprintln(out, "   note:", n)
	}
}
