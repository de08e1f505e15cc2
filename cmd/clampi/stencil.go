package main

import (
	"fmt"
	"io"

	"clampi/internal/obsv"
	"clampi/internal/stencil"
)

// runStencil runs the 2-D Jacobi halo-exchange workload (DESIGN.md §16)
// on the simulated transport and prints its virtual time and bit-exact
// grid checksum; -counters adds the notifiable-RMA cache counters.
//
// -compare runs the workload twice — blanket epoch-invalidation
// baseline, then notification-driven targeted coherence — and prints the
// virtual-time win. It fails if the grids diverge or the win falls below
// 30%.
func runStencil(args []string, stdout, stderr io.Writer) error {
	fs, s := newFlags("stencil", stderr, modeFlag|metricsFlag)
	ranks := fs.Int("ranks", 4, "ranks in the 1-D row decomposition")
	rows := fs.Int("rows", 8, "owned grid rows per rank")
	cols := fs.Int("cols", 64, "grid width in cells")
	iters := fs.Int("iters", 24, "Jacobi iterations")
	notify := fs.Bool("notify", false, "use notification-driven targeted coherence instead of blanket epoch invalidation")
	writeback := fs.Bool("writeback", false, "stage edge-row publishes write-back and flush coalesced at epoch close")
	compare := fs.Bool("compare", false, "run blanket and notify modes, assert bit-identical grids, report the win")
	counters := fs.Bool("counters", false, "print the notifiable-RMA cache counters")
	m, err := s.parse(fs, args)
	if err != nil {
		return err
	}
	cfg := stencil.Config{
		Ranks:     *ranks,
		Rows:      *rows,
		Cols:      *cols,
		Iters:     *iters,
		Notify:    *notify,
		WriteBack: *writeback,
	}
	if !*compare {
		res, err := stencil.Run(cfg, m)
		if err != nil {
			return err
		}
		label := "blanket"
		if cfg.Notify {
			label = "notify"
		}
		printStencil(stdout, label, res, *counters)
		return writeStencilMetrics(s.metrics, res)
	}

	base := cfg
	base.Notify = false
	bres, err := stencil.Run(base, m)
	if err != nil {
		return err
	}
	ntf := cfg
	ntf.Notify = true
	nres, err := stencil.Run(ntf, m)
	if err != nil {
		return err
	}
	printStencil(stdout, "blanket", bres, *counters)
	printStencil(stdout, "notify", nres, *counters)
	if err := writeStencilMetrics(s.metrics, nres); err != nil {
		return err
	}
	if bres.Checksum != nres.Checksum {
		return fmt.Errorf("grids diverged (blanket %016x, notify %016x)", bres.Checksum, nres.Checksum)
	}
	win := 1 - float64(nres.Virtual)/float64(bres.Virtual)
	fmt.Fprintf(stdout, "win     %5.1f%% (virtual comm time, bit-identical grids)\n", 100*win)
	if win < 0.30 {
		return fmt.Errorf("notification-driven coherence won %.1f%%, less than 30%%", 100*win)
	}
	return nil
}

// writeStencilMetrics exports the run's counters — and the notification
// queue-depth gauge (the run's observed maximum) — through the obsv
// registry exporters. An empty path writes nothing.
func writeStencilMetrics(path string, res stencil.Result) error {
	if path == "" {
		return nil
	}
	reg := obsv.NewRegistry()
	app := obsv.L("app", "stencil")
	obsv.PublishStats(reg, res.Stats, app)
	obsv.PublishNotifyDepth(reg, res.MaxDepth, app)
	return obsv.WriteMetricsFile(path, reg)
}

func printStencil(w io.Writer, label string, res stencil.Result, counters bool) {
	fmt.Fprintf(w, "%-8s checksum %016x  virtual %v\n", label, res.Checksum, res.Virtual)
	if !counters {
		return
	}
	s := res.Stats
	fmt.Fprintf(w, "  gets %d  full-hits %d  invalidations %d  net-bytes %d\n",
		s.Gets, s.FullHits, s.Invalidations, s.BytesFromNetwork)
	fmt.Fprintf(w, "  notifications %d  notify-invalidations %d  notify-patches %d\n",
		s.Notifications, s.NotifyInvalidations, s.NotifyPatches)
	fmt.Fprintf(w, "  write-hits %d  write-backs %d  dirty-flushes %d  max-queue-depth %d\n",
		s.WriteHits, s.WriteBacks, s.DirtyFlushes, res.MaxDepth)
}
