package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
)

const loopbackNote = "_wire workloads cross a Unix socket to a server in a second OS process on this host: loopback, no real link, so link rate and wire latency are not measured"

// suiteReport is what -out writes: every number of one suite run with
// the conditions it was measured under.
type suiteReport struct {
	Seed       int64           `json:"seed"`
	Seconds    float64         `json:"seconds"`
	GoVersion  string          `json:"go_version"`
	NumCPU     int             `json:"nproc"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	CPU        int             `json:"bound_to_cpu"` // -1: not bound
	Loopback   string          `json:"loopback"`
	EndToEnd   []metricDef     `json:"end_to_end_bounds"`
	Workloads  []suiteWorkload `json:"workloads"`
}

type suiteWorkload struct {
	Name     string           `json:"name"`
	Why      string           `json:"why"`
	Reps     int              `json:"reps"`
	Ops      int64            `json:"ops_per_rep"`
	Failed   int64            `json:"failed_ops"`
	VNsPerOp float64          `json:"virtual_ns_per_op"`
	EndToEnd map[string]value `json:"end_to_end"`
	PerLayer map[string]value `json:"per_layer"`

	counts statsPerRep
}

// runSuite runs every workload untraced and traced and prints the
// reports.
func runSuite(o options) (*suiteReport, error) {
	if o.out != "" {
		if err := os.MkdirAll(o.out, 0o755); err != nil {
			return nil, err
		}
	}
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: o.seed, toy: o.toy, dir: dir}
	sr := &suiteReport{Seed: o.seed, Seconds: o.seconds, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: o.cpu, Loopback: loopbackNote, EndToEnd: endToEnd}
	fmt.Printf("bench: seed %d, %s, nproc %d, GOMAXPROCS %d, bound to CPU %d\nbench: %s\n", sr.Seed, sr.GoVersion, sr.NumCPU, sr.GOMAXPROCS, sr.CPU, loopbackNote)
	var failed int64
	for i := range workloads {
		w := &workloads[i]
		plain, err := runUntraced(w, e, o)
		if err != nil {
			return nil, err
		}
		traced, err := runTraced(w, e, o)
		if err != nil {
			return nil, err
		}
		traced.setups, traced.walls = plain.setups, plain.walls // print the end-to-end figures of the untraced run
		traced.print(os.Stdout)
		sr.Workloads = append(sr.Workloads, suiteWorkload{
			Name: w.Name, Why: w.Why, Reps: len(plain.walls), Ops: plain.ops, Failed: plain.failed + traced.failed,
			VNsPerOp: plain.vns, EndToEnd: plain.result(false).Metrics, PerLayer: traced.result(true).Metrics,
			counts: plain.stats,
		})
		failed += plain.failed + traced.failed
	}
	if o.out != "" {
		js, err := json.MarshalIndent(sr, "", "  ")
		if err != nil {
			return nil, err
		}
		if err := os.WriteFile(filepath.Join(o.out, "report.json"), append(js, '\n'), 0o644); err != nil {
			return nil, err
		}
	}
	if failed > 0 {
		return sr, fmt.Errorf("%d operations failed", failed)
	}
	return sr, nil
}

// repeatSuite runs the suite twice and compares the two sets of
// end-to-end figures: each pair must agree within the metric's bound,
// and what is exact on the simulated backend must agree exactly.
func repeatSuite(o options) error {
	a, err := runSuite(o)
	if err != nil {
		return err
	}
	b, err := runSuite(o)
	if err != nil {
		return err
	}
	fmt.Printf("\nrepeat check, seed %d\n%-18s %-10s %14s %14s %8s %6s\n", o.seed, "workload", "metric", "first", "second", "diff", "bound")
	bad := 0
	for i, wa := range a.Workloads {
		wb := b.Workloads[i]
		for _, d := range endToEnd {
			x, y := wa.EndToEnd[d.Name].Value, wb.EndToEnd[d.Name].Value
			diff := math.Abs(x-y) / math.Min(x, y)
			mark := ""
			if diff > d.Bound {
				mark = "  <-- beyond the bound"
				bad++
			}
			fmt.Printf("%-18s %-10s %14.6g %14.6g %7.2f%% %5.0f%%%s\n", wa.Name, d.Name, x, y, 100*diff, 100*d.Bound, mark)
		}
		if findWorkload(wa.Name).sim && (wa.VNsPerOp != wb.VNsPerOp || wa.counts != wb.counts || wa.Ops != wb.Ops) {
			fmt.Printf("%-18s counters or virtual time differ between the two runs\n", wa.Name)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("repeat check: %d disagreements", bad)
	}
	fmt.Println("repeat check passed")
	return nil
}
