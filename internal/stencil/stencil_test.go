package stencil

import (
	"testing"

	"clampi/internal/schedtest"
)

// referenceRun computes the same Jacobi evolution as Run in plain Go on
// one global grid — no windows, no caching, no decomposition — and
// folds per-rank checksums exactly like Combine. Any divergence between
// the distributed kernel and this oracle (a torn halo, a stale serve, a
// mis-published edge row) shows up as a checksum mismatch.
func referenceRun(cfg Config) uint64 {
	w := cfg.Cols
	rows := cfg.Ranks * cfg.Rows
	cur := make([]float64, (rows+2)*w)
	nxt := make([]float64, len(cur))
	pin := func(g []float64) {
		for cx := 1; cx < w-1; cx++ {
			g[w+cx] = sourceTemp
		}
	}
	pin(cur)
	for it := 0; it < cfg.Iters; it++ {
		relax(cur, nxt, rows, w)
		pin(nxt)
		cur, nxt = nxt, cur
	}
	ranks := make([]RankResult, cfg.Ranks)
	for r := 0; r < cfg.Ranks; r++ {
		// Rank r owns global rows r*Rows..(r+1)*Rows-1, which live at
		// grid rows 1+r*Rows onward; checksumOwned expects one leading
		// halo row.
		lo := r * cfg.Rows * w
		ranks[r] = RankResult{Rank: r, Checksum: checksumOwned(cur[lo:], cfg.Rows, w)}
	}
	return Combine(ranks).Checksum
}

func testConfig() Config {
	return Config{Ranks: 4, Rows: 8, Cols: 64, Iters: 24}
}

// TestStencilMatchesReference pins the distributed kernel to the
// single-grid oracle: every cell of every rank must be bit-identical to
// a plain sequential Jacobi, in both coherence modes and both write
// policies.
func TestStencilMatchesReference(t *testing.T) {
	cfg := testConfig()
	want := referenceRun(cfg)
	for _, tc := range []struct {
		name              string
		notify, writeBack bool
	}{
		{"blanket", false, false},
		{"notify", true, false},
		{"notify-writeback", true, true},
		{"blanket-writeback", false, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := cfg
			c.Notify = tc.notify
			c.WriteBack = tc.writeBack
			res, err := Run(c, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Checksum != want {
				t.Fatalf("checksum %016x, reference %016x", res.Checksum, want)
			}
		})
	}
}

// TestStencilNotifyWin is the DESIGN.md §16 acceptance gate: with
// notification-driven coherence the workload's virtual communication
// time must beat the blanket epoch-invalidation baseline by at least
// 30%, while computing a bit-identical grid.
func TestStencilNotifyWin(t *testing.T) {
	cfg := testConfig()
	base, err := Run(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Notify = true
	ntf, err := Run(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if base.Checksum != ntf.Checksum {
		t.Fatalf("modes diverged: blanket %016x, notify %016x", base.Checksum, ntf.Checksum)
	}
	win := 1 - float64(ntf.Virtual)/float64(base.Virtual)
	t.Logf("blanket %v, notify %v: win %.1f%% (hits %d/%d vs %d/%d, net bytes %d vs %d)",
		base.Virtual, ntf.Virtual, 100*win,
		ntf.Stats.FullHits, ntf.Stats.Gets, base.Stats.FullHits, base.Stats.Gets,
		ntf.Stats.BytesFromNetwork, base.Stats.BytesFromNetwork)
	if win < 0.30 {
		t.Fatalf("notification-driven coherence won only %.1f%%, want >= 30%%", 100*win)
	}
}

// TestStencilSchedulesAgree runs the workload once per goroutine
// schedule (see schedtest): the grids must be bit-identical, because the
// fence-delimited BSP structure makes the result independent of how the
// concurrent ranks are scheduled.
func TestStencilSchedulesAgree(t *testing.T) {
	for _, notify := range []bool{false, true} {
		cfg := testConfig()
		cfg.Notify = notify
		var sums []uint64
		schedtest.Do(func(sched schedtest.Schedule) {
			res, err := Run(cfg, 0)
			if err != nil {
				t.Fatalf("notify=%v %s: %v", notify, sched.Name, err)
			}
			sums = append(sums, res.Checksum)
		})
		if sums[0] != sums[1] {
			t.Fatalf("notify=%v: %016x on one P, %016x on every P", notify, sums[0], sums[1])
		}
	}
}

// TestStencilCounters checks the workload actually exercises the paths
// it claims to: notifications flow and keep hits in notify mode, dirty
// spans stage and flush in write-back mode.
func TestStencilCounters(t *testing.T) {
	cfg := testConfig()
	cfg.Notify = true
	res, err := Run(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Notifications == 0 {
		t.Error("no notifications drained")
	}
	if s.NotifyPatches == 0 && s.NotifyInvalidations == 0 {
		t.Error("notifications drained but none applied")
	}
	if s.FullHits == 0 {
		t.Error("no cache hits survived: targeted coherence is not keeping entries")
	}
	if res.MaxDepth == 0 {
		t.Error("queue depth gauge never rose above zero")
	}

	cfg.WriteBack = true
	res, err = Run(cfg, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.WriteBacks == 0 {
		t.Error("write-back mode staged no dirty spans")
	}
	if res.Stats.DirtyFlushes == 0 {
		t.Error("write-back mode flushed no dirty runs")
	}
}

// TestStencilValidate exercises the config guard rails.
func TestStencilValidate(t *testing.T) {
	for _, bad := range []Config{
		{Ranks: 0, Rows: 1, Cols: 3, Iters: 1},
		{Ranks: 1, Rows: 0, Cols: 3, Iters: 1},
		{Ranks: 1, Rows: 1, Cols: 2, Iters: 1},
		{Ranks: 1, Rows: 1, Cols: 3, Iters: 0},
	} {
		if _, err := Run(bad, 0); err == nil {
			t.Errorf("config %+v: want error, got nil", bad)
		}
	}
}
