// Command bench is the repository's host-clock benchmark: seven
// workloads measured end to end with tracing off, and layer by layer
// from a separate traced rep plus isolated probes of the layers below
// the cache. See README.md for every workload and metric.
//
// The driver form runs one workload and prints one JSON object as the
// last line of standard output:
//
//	bash bench/run.sh --workload lcc_replay_sim --seed 1 --seconds 8 --trace 0
//
// Without --workload the whole suite runs, traced and untraced, and
// prints the per-workload reports; -repeat-check runs it twice and
// compares the two sets of end-to-end figures against their bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// confirmSeed is reserved for confirmation runs: a gain claimed from the
// seeds used while writing a change must also hold on this one.
const confirmSeed = 20170529

// value is one reported metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the driver reads.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type options struct {
	seed    int64
	seconds float64
	toy     bool   // smoke-test sizes; set by smoke_test.go only
	out     string // directory for the suite report and raw spans; empty writes nothing
	cpu     int    // the CPU the process is bound to, -1 if it is not
}

func main() {
	if spec := os.Getenv(serveEnv); spec != "" {
		os.Exit(serveMain(spec))
	}
	var (
		o           options
		name        = flag.String("workload", "", "run this workload only and print the driver's JSON object as the last line")
		traced      = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		repeatCheck = flag.Bool("repeat-check", false, "run the suite twice and compare the end-to-end figures against their bounds")
	)
	flag.Int64Var(&o.seed, "seed", 1, fmt.Sprintf("seed of every generated input (%d is reserved for confirmation runs)", confirmSeed))
	flag.Float64Var(&o.seconds, "seconds", 8, "seconds of timed reps per workload")
	flag.StringVar(&o.out, "out", "", "directory for report.json and raw span files (not committed)")
	flag.Parse()

	// One generator process on one CPU (see pinToOneCPU); the server
	// child of a _wire workload inherits the CPU.
	cpu, err := pinToOneCPU()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: binding to one CPU:", err)
		os.Exit(1)
	}
	o.cpu = cpu
	runtime.GOMAXPROCS(1)

	switch {
	case *name != "":
		err = runOne(*name, *traced != 0, o)
	case *repeatCheck:
		err = repeatSuite(o)
	default:
		_, err = runSuite(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// scratchDir makes the directory sockets live in. The path stays
// relative and short: a Unix socket address holds about 100 bytes.
func scratchDir() (string, error) {
	base := filepath.Join(".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, "s")
}

// runOne is the driver form: one workload, one JSON object.
func runOne(name string, traced bool, o options) error {
	w := findWorkload(name)
	if w == nil {
		return fmt.Errorf("unknown workload %q", name)
	}
	dir, err := scratchDir()
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	e := &env{seed: o.seed, toy: o.toy, dir: dir}

	var rep *report
	if traced {
		rep, err = runTraced(w, e, o)
	} else {
		rep, err = runUntraced(w, e, o)
	}
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	line, err := json.Marshal(rep.result(traced))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if rep.failed > 0 {
		return fmt.Errorf("%s: %d of %d operations failed", name, rep.failed, rep.attempted)
	}
	return nil
}

// rounds is how many times an untraced run sets the workload up. Each
// round times its set-up and then runs reps for its share of the
// seconds, so the set-up samples are spread over the whole run like the
// rep samples and a loud stretch of the machine cannot take them all.
const rounds = 8

// runUntraced measures the end-to-end metrics with tracing off: rounds
// of one timed set-up and fixed-size reps, o.seconds of reps in all, the
// verified pass after the last rep of the last round.
func runUntraced(w *workloadDef, e *env, o options) (*report, error) {
	rep := &report{w: w, seed: e.seed}
	budget := time.Duration(o.seconds * float64(time.Second) / rounds)
	var first *repResult
	for i := 0; i < rounds; i++ {
		t0 := time.Now()
		inst, err := w.setup(e)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.Name, err)
		}
		rep.setups = append(rep.setups, time.Since(t0).Seconds())
		reps, err := measure(w, inst, budget, 1, i == rounds-1, first)
		inst.close()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.Name, err)
		}
		if first == nil {
			first = &reps[0]
		}
		rep.addReps(reps)
	}
	return rep, nil
}
