// Command clampi regenerates the paper's figures and the experiments
// beyond them, one subcommand per experiment driver:
//
//	clampi latency [-max 131072]                      Fig. 1
//	clampi micro   [-fig all|7|8|9|10|11] [-json]     Figs. 7-11 (§IV-A)
//	clampi nbody   [-fig all|2|12|13|14]              Figs. 2, 12-14 (§IV-B)
//	clampi lcc     [-fig all|3|15|16|17|locality]     Figs. 3, 15-18 (§IV-C)
//	clampi ext     [-exp all|samplesize|...] [-csv]   ablations and extension workloads
//	clampi stencil [-compare] [-writeback] [-counters] 2-D Jacobi halo exchange
//	clampi chaos   [-app all|...] [-scenario all|...] seeded fault-injection suite
//
// The flags several subcommands share are declared once: -mode
// fidelity|throughput selects the execution engine, -metrics FILE and
// -trace FILE export the cache metrics and event trace, and -paper
// switches a figure driver from its scaled defaults to the paper's
// parameters. `clampi <subcommand> -h` lists a subcommand's flags.
//
// Every figure mode's stdout at its scaled defaults is a golden under
// testdata/, diffed in both exec modes by this package's tests. The
// process exits non-zero when a subcommand fails, including a chaos cell
// that loses bit-identity and a stencil comparison whose grids diverge or
// whose win falls below 30%.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"clampi/internal/experiments"
	"clampi/internal/mpi"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "clampi:", err)
		os.Exit(1)
	}
}

// subcommand runs one experiment driver on its own arguments.
type subcommand func(args []string, stdout, stderr io.Writer) error

var subcommands = []struct {
	name string
	run  subcommand
}{
	{"latency", runLatency},
	{"micro", runMicro},
	{"nbody", runNBody},
	{"lcc", runLCC},
	{"ext", runExt},
	{"stencil", runStencil},
	{"chaos", runChaos},
}

// run dispatches args[0] to its subcommand. A -h request is not an error.
func run(args []string, stdout, stderr io.Writer) error {
	names := make([]string, len(subcommands))
	for i, sc := range subcommands {
		names[i] = sc.name
	}
	if len(args) == 0 {
		return fmt.Errorf("missing subcommand (want %s)", strings.Join(names, ", "))
	}
	for _, sc := range subcommands {
		if sc.name == args[0] {
			err := sc.run(args[1:], stdout, stderr)
			if errors.Is(err, flag.ErrHelp) {
				return nil
			}
			return err
		}
	}
	return fmt.Errorf("unknown subcommand %q (want %s)", args[0], strings.Join(names, ", "))
}

// Shared flags a subcommand can register with newFlags.
const (
	modeFlag = 1 << iota
	metricsFlag
	traceFlag
	paperFlag

	obsvFlags = metricsFlag | traceFlag
)

// shared holds the values of the flags several subcommands take.
type shared struct {
	mode, metrics, trace string
	paper                bool
}

// newFlags returns a flag set for one subcommand with the shared flags
// selected by has already declared on it.
func newFlags(name string, stderr io.Writer, has int) (*flag.FlagSet, *shared) {
	fs := flag.NewFlagSet("clampi "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	s := &shared{mode: "fidelity"}
	if has&modeFlag != 0 {
		fs.StringVar(&s.mode, "mode", s.mode, "execution mode: fidelity (serialized, calibration-grade timing) or throughput (concurrent ranks)")
	}
	if has&metricsFlag != 0 {
		fs.StringVar(&s.metrics, "metrics", "", "write merged cache metrics to this file (.json selects JSON, anything else Prometheus text format)")
	}
	if has&traceFlag != 0 {
		fs.StringVar(&s.trace, "trace", "", "write the cache-event trace to this file as JSON lines")
	}
	if has&paperFlag != 0 {
		fs.BoolVar(&s.paper, "paper", false, "use the paper's full-scale parameters")
	}
	return fs, s
}

// parse parses args into fs, selects the exec mode for every experiment
// (fidelity for a subcommand without -mode) and turns on metric and
// trace collection when either file is asked for.
func (s *shared) parse(fs *flag.FlagSet, args []string) (mpi.ExecMode, error) {
	if err := fs.Parse(args); err != nil {
		return 0, err
	}
	m, err := mpi.ParseExecMode(s.mode)
	if err != nil {
		return 0, err
	}
	experiments.SetExecMode(m)
	if s.metrics != "" || s.trace != "" {
		experiments.EnableObservability(0)
	}
	return m, nil
}

// writeObservability writes the collected metrics and trace to the files
// -metrics and -trace name.
func (s *shared) writeObservability() error {
	if err := experiments.WriteObservability(s.metrics, s.trace); err != nil {
		return fmt.Errorf("observability: %w", err)
	}
	return nil
}

// figure is one named table-printing step of a driver.
type figure struct {
	name string
	run  func(w io.Writer) error
}

// runFigures runs, in order, every figure sel selects: one by name, or
// all of them. flagName labels an error with the flag that chose it.
func runFigures(w io.Writer, flagName, sel string, figs []figure) error {
	for _, f := range figs {
		if sel != "all" && sel != f.name {
			continue
		}
		if err := f.run(w); err != nil {
			return fmt.Errorf("%s %s: %w", flagName, f.name, err)
		}
	}
	return nil
}

// emit prints tbl unless the driver that built it failed.
func emit(w io.Writer, tbl fmt.Stringer, err error) error {
	if err != nil {
		return err
	}
	fmt.Fprint(w, tbl)
	return nil
}

// oneOf renders names as "all, a, b or c" for help and error texts.
func oneOf(names []string) string {
	return "all, " + strings.Join(names[:len(names)-1], ", ") + " or " + names[len(names)-1]
}
