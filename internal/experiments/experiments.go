// Package experiments implements the reproduction drivers for every
// figure of the paper's evaluation (§IV). Each FigN function runs the
// experiment at caller-chosen scale and returns both a rendered table
// (the same rows/series the paper plots) and structured results that the
// benchmark assertions and EXPERIMENTS.md generation consume.
//
// The subcommands of cmd/clampi run them at scaled defaults, whose
// output is golden, and at the paper's full-scale parameters (-paper).
package experiments

import (
	"fmt"

	"clampi/internal/lsb"
	"clampi/internal/mpi"
	"clampi/internal/netsim"
	"clampi/internal/simtime"
)

// Fig1Row is one (mapping, size) latency measurement.
type Fig1Row struct {
	Mapping string
	Size    int
	Latency simtime.Duration
}

// Fig1Latency reproduces Fig. 1: RMA get latency per message size and
// process/node mapping. The modelled values are cross-checked against an
// actual 2-rank run through the runtime for the inter-node mapping.
func Fig1Latency(sizes []int) ([]Fig1Row, *lsb.Table, error) {
	model := netsim.DefaultModel()
	var rows []Fig1Row
	tbl := lsb.NewTable("Fig 1: get latency per size and mapping", "size(B)", "mapping", "latency")
	for _, d := range netsim.Distances() {
		for _, s := range sizes {
			l := model.GetLatency(s, d)
			rows = append(rows, Fig1Row{Mapping: d.String(), Size: s, Latency: l})
			tbl.AddRow(s, d.String(), l)
		}
	}
	// Cross-check: an end-to-end get through the runtime must agree
	// with the model for the default (one rank per node) mapping.
	for _, s := range sizes {
		var measured simtime.Duration
		err := mpi.Run(2, mpi.Config{}, func(r *mpi.Rank) error {
			win, _ := r.WinAllocate(s, nil)
			defer win.Free()
			if r.ID() == 0 {
				if err := win.LockAll(); err != nil {
					return err
				}
				dst := make([]byte, s)
				t0 := r.Clock().Now()
				if err := win.Get(dst, byteType, s, 1, 0); err != nil {
					return err
				}
				if err := win.FlushAll(); err != nil {
					return err
				}
				measured = r.Clock().Now() - t0
				if err := win.UnlockAll(); err != nil {
					return err
				}
			}
			r.Barrier()
			return nil
		})
		if err != nil {
			return rows, tbl, err
		}
		want := model.GetLatency(s, netsim.OtherNode)
		if measured != want {
			return rows, tbl, fmt.Errorf("fig1: runtime latency %v != model %v at %dB", measured, want, s)
		}
	}
	return rows, tbl, nil
}
