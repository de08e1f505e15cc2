package wire

import (
	"sync"
	"testing"

	"clampi/internal/stencil"
)

// TestStencilOverWire drives the halo-exchange kernel over the socket
// transport — one dialed client per rank, fence barriers rendezvousing
// at the server — and checks the grid is bit-identical to the simulated
// transport, in both coherence modes. The kernel itself is shared
// (stencil.RunRank is transport-agnostic); only the rma.Window under it
// differs.
func TestStencilOverWire(t *testing.T) {
	base := stencil.Config{Ranks: 3, Rows: 4, Cols: 32, Iters: 10}
	for _, notify := range []bool{false, true} {
		cfg := base
		cfg.Notify = notify
		sim, err := stencil.Run(cfg, 0)
		if err != nil {
			t.Fatalf("notify=%v: sim run: %v", notify, err)
		}

		s := testServer(t, ServeConfig{
			Windows: []WindowSpec{{Name: "grid", Regions: MakeRegions(cfg.Ranks, cfg.RegionBytes())}},
			World:   cfg.Ranks,
		})
		wins := make([]*Window, cfg.Ranks)
		for r := 0; r < cfg.Ranks; r++ {
			wins[r] = dialWindow(t, s, DialConfig{Window: "grid", Rank: r, World: cfg.Ranks})
		}

		results := make([]stencil.RankResult, cfg.Ranks)
		errs := make([]error, cfg.Ranks)
		var wg sync.WaitGroup
		for r := 0; r < cfg.Ranks; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				results[r], errs[r] = stencil.RunRank(wins[r], r, cfg)
			}(r)
		}
		wg.Wait()
		for r, err := range errs {
			if err != nil {
				t.Fatalf("notify=%v: rank %d: %v", notify, r, err)
			}
		}
		wireRes := stencil.Combine(results)
		if wireRes.Checksum != sim.Checksum {
			t.Errorf("notify=%v: wire checksum %016x, sim %016x",
				notify, wireRes.Checksum, sim.Checksum)
		}
		if notify && wireRes.Stats.Notifications == 0 {
			t.Error("no notifications drained over the wire")
		}
	}
}
