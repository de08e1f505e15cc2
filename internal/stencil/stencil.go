// Package stencil implements a 2-D Jacobi halo-exchange workload over
// cached RMA windows — the notifiable-RMA evaluation kernel of
// DESIGN.md §16.
//
// The grid is decomposed 1-D by rows: each rank owns Rows×Cols float64
// cells plus one halo row above and below. A rank's window region holds
// only its two edge rows (the rows neighbours read): the top edge at
// displacement 0 and the bottom edge at displacement rowBytes. Every
// iteration is fence-delimited BSP: read both neighbour halos through
// the cache, fence, relax with the 5-point Jacobi operator, publish the
// edge rows that changed, fence.
//
// The publish step compares each freshly encoded edge row byte-for-byte
// against the copy last written to the window and skips the write when
// they are identical. That skip is exact — it changes no value any rank
// ever computes — but it is what separates the two coherence modes:
// heat from the fixed source row on rank 0 advances at most one row per
// iteration, so edge rows far from the wavefront stay bit-identical for
// many iterations. With Notify set, the cache drains notifications and
// keeps unchanged halos as hits (and patches changed ones from the
// notification payload); without it, Transparent mode invalidates
// everything at every fence and re-fetches both halos every iteration.
// Both modes compute bit-identical grids; only the virtual
// communication time differs.
package stencil

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sync"

	"clampi/internal/core"
	"clampi/internal/datatype"
	"clampi/internal/mpi"
	"clampi/internal/rma"
	"clampi/internal/simtime"
)

// sourceTemp is the fixed Dirichlet temperature of the hot row (the
// first owned row of rank 0).
const sourceTemp = 100.0

// cellBytes is the wire size of one float64 cell.
const cellBytes = 8

// Config describes one stencil run.
type Config struct {
	// Ranks is the number of ranks in the 1-D row decomposition.
	Ranks int
	// Rows is the number of owned grid rows per rank.
	Rows int
	// Cols is the grid width in cells; a row is Cols*8 bytes on the
	// wire.
	Cols int
	// Iters is the number of Jacobi iterations.
	Iters int
	// Notify selects notification-driven targeted coherence
	// (core.Params.NotifyTargeted); false runs the blanket
	// epoch-invalidation Transparent baseline.
	Notify bool
	// WriteBack stages edge-row publishes as dirty spans and flushes
	// them coalesced at the closing fence instead of writing through.
	WriteBack bool
	// CacheBytes overrides the cache capacity (0 keeps the core
	// default).
	CacheBytes int
	// Wrap, when non-nil, decorates each rank's window before the
	// caching layer attaches — the chaos driver's fault-injection hook.
	// Run applies it; RunRank callers wrap the window themselves.
	Wrap func(rma.Window) rma.Window
	// Resilience, when non-nil, supplies the parameter base (retry
	// policy, breaker, fill verification) the cache is built from; the
	// mode, capacity and notify/write-back switches of this Config
	// still apply on top.
	Resilience *core.Params
}

func (cfg Config) validate() error {
	switch {
	case cfg.Ranks < 1:
		return fmt.Errorf("stencil: Ranks must be >= 1, got %d", cfg.Ranks)
	case cfg.Rows < 1:
		return fmt.Errorf("stencil: Rows must be >= 1, got %d", cfg.Rows)
	case cfg.Cols < 3:
		return fmt.Errorf("stencil: Cols must be >= 3, got %d", cfg.Cols)
	case cfg.Iters < 1:
		return fmt.Errorf("stencil: Iters must be >= 1, got %d", cfg.Iters)
	}
	return nil
}

// RowBytes is the wire size of one edge row under cfg.
func (cfg Config) RowBytes() int { return cfg.Cols * cellBytes }

// RegionBytes is the window region size each rank must expose: the two
// edge rows.
func (cfg Config) RegionBytes() int { return 2 * cfg.RowBytes() }

// RankResult is one rank's outcome.
type RankResult struct {
	Rank int
	// Checksum is FNV-1a over the rank's owned rows after the final
	// iteration (row-major, little-endian float64 bits).
	Checksum uint64
	// Virtual is the rank's virtual-clock advance over the run — the
	// modelled communication/management time, since compute is not
	// charged.
	Virtual simtime.Duration
	// Stats is the rank's cache counter snapshot.
	Stats core.Stats
	// MaxDepth is the deepest notification queue observed at any
	// iteration boundary.
	MaxDepth int
}

// Result aggregates a whole run.
type Result struct {
	// Checksum folds the per-rank checksums in rank order; two runs
	// agree iff every rank's grid is bit-identical.
	Checksum uint64
	// Virtual is the slowest rank's clock advance (BSP makespan).
	Virtual simtime.Duration
	// Stats sums all ranks' cache counters.
	Stats core.Stats
	// MaxDepth is the deepest notification queue seen on any rank.
	MaxDepth int
	// Ranks holds the per-rank results in rank order.
	Ranks []RankResult
}

// Combine folds per-rank results (in rank order) into a Result. It is
// exported so transport harnesses that drive RunRank directly (the wire
// tests) aggregate exactly like Run.
func Combine(ranks []RankResult) Result {
	h := fnv.New64a()
	var buf [8]byte
	out := Result{Ranks: ranks}
	for _, rr := range ranks {
		binary.LittleEndian.PutUint64(buf[:], rr.Checksum)
		h.Write(buf[:])
		if rr.Virtual > out.Virtual {
			out.Virtual = rr.Virtual
		}
		if rr.MaxDepth > out.MaxDepth {
			out.MaxDepth = rr.MaxDepth
		}
		out.Stats = out.Stats.Add(rr.Stats)
	}
	out.Checksum = h.Sum64()
	return out
}

// Run executes the workload on the simulated transport: cfg.Ranks
// simulated ranks, each exposing its edge rows through a window and
// running RunRank. The second parameter is ignored; it stays for the
// benchmark harness (see mpi.ExecMode).
func Run(cfg Config, _ mpi.ExecMode) (Result, error) {
	if err := cfg.validate(); err != nil {
		return Result{}, err
	}
	results := make([]RankResult, cfg.Ranks)
	var mu sync.Mutex
	err := mpi.Run(cfg.Ranks, mpi.Config{}, func(r *mpi.Rank) error {
		region := make([]byte, cfg.RegionBytes())
		var win rma.Window = r.WinCreate(region, nil)
		defer win.Free()
		if cfg.Wrap != nil {
			win = cfg.Wrap(win)
		}
		res, err := RunRank(win, r.ID(), cfg)
		if err != nil {
			return err
		}
		mu.Lock()
		results[r.ID()] = res
		mu.Unlock()
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	return Combine(results), nil
}

// RunRank runs one rank's share of the workload over win, which must
// expose RegionBytes() bytes at every rank and synchronize with Fence.
// It is transport-agnostic: the simulated runtime and the wire client
// both drive it.
func RunRank(win rma.Window, rank int, cfg Config) (RankResult, error) {
	if err := cfg.validate(); err != nil {
		return RankResult{}, err
	}
	clock := win.Endpoint().Clock()
	v0 := clock.Now()

	params := core.Params{}
	if cfg.Resilience != nil {
		params = *cfg.Resilience
	}
	params.Mode = core.Transparent
	params.NotifyTargeted = cfg.Notify
	params.WriteBack = cfg.WriteBack
	if cfg.CacheBytes > 0 {
		params.StorageBytes = cfg.CacheBytes
	}
	c, err := core.New(win, params)
	if err != nil {
		return RankResult{}, err
	}

	w := cfg.Cols
	rowBytes := cfg.RowBytes()
	// Row 0 is the top halo, rows 1..Rows are owned, row Rows+1 is the
	// bottom halo. Everything starts at zero; the window region is zero
	// too, so the first publish only writes rows that became non-zero.
	cur := make([]float64, (cfg.Rows+2)*w)
	nxt := make([]float64, len(cur))
	if rank == 0 {
		for cx := 1; cx < w-1; cx++ {
			cur[w+cx] = sourceTemp
		}
	}

	topBuf := make([]byte, rowBytes)
	botBuf := make([]byte, rowBytes)
	lastTop := make([]byte, rowBytes) // last bytes published at disp 0
	lastBot := make([]byte, rowBytes) // last bytes published at disp rowBytes
	haloT := make([]byte, rowBytes)
	haloB := make([]byte, rowBytes)

	put := func(src []byte, disp int, tag uint32) error {
		if cfg.Notify {
			return c.PutNotify(src, datatype.Byte, rowBytes, rank, disp, tag)
		}
		return c.Put(src, datatype.Byte, rowBytes, rank, disp)
	}
	// publish writes the edge rows whose bytes changed since the last
	// publish — an exact skip: unchanged rows are bit-identical, so not
	// re-writing them is invisible to every reader.
	publish := func(tag uint32) error {
		encodeRow(topBuf, cur[w:2*w])
		encodeRow(botBuf, cur[cfg.Rows*w:(cfg.Rows+1)*w])
		if !bytes.Equal(topBuf, lastTop) {
			if err := put(topBuf, 0, tag); err != nil {
				return err
			}
			copy(lastTop, topBuf)
		}
		if !bytes.Equal(botBuf, lastBot) {
			if err := put(botBuf, rowBytes, tag); err != nil {
				return err
			}
			copy(lastBot, botBuf)
		}
		return nil
	}

	if err := win.Fence(); err != nil { // open the first access epoch
		return RankResult{}, err
	}
	if err := publish(0); err != nil {
		return RankResult{}, err
	}
	if err := win.Fence(); err != nil { // initial edges delivered
		return RankResult{}, err
	}

	maxDepth := 0
	for it := 1; it <= cfg.Iters; it++ {
		if d := c.NotifyQueueDepth(); d > maxDepth {
			maxDepth = d
		}
		// Halo reads through the cache: the neighbour above publishes
		// its bottom edge at disp rowBytes, the one below its top edge
		// at disp 0.
		if rank > 0 {
			if err := c.Get(haloT, datatype.Byte, rowBytes, rank-1, rowBytes); err != nil {
				return RankResult{}, err
			}
		}
		if rank < cfg.Ranks-1 {
			if err := c.Get(haloB, datatype.Byte, rowBytes, rank+1, 0); err != nil {
				return RankResult{}, err
			}
		}
		if err := win.Fence(); err != nil { // reads complete
			return RankResult{}, err
		}
		if rank > 0 {
			decodeRow(cur[:w], haloT)
		}
		if rank < cfg.Ranks-1 {
			decodeRow(cur[(cfg.Rows+1)*w:], haloB)
		}

		relax(cur, nxt, cfg.Rows, w)
		if rank == 0 {
			// Dirichlet source: the first owned row is pinned.
			for cx := 1; cx < w-1; cx++ {
				nxt[w+cx] = sourceTemp
			}
		}
		cur, nxt = nxt, cur

		if err := publish(uint32(it)); err != nil {
			return RankResult{}, err
		}
		if err := win.Fence(); err != nil { // writes delivered
			return RankResult{}, err
		}
	}

	return RankResult{
		Rank:     rank,
		Checksum: checksumOwned(cur, cfg.Rows, w),
		Virtual:  clock.Now() - v0,
		Stats:    c.Stats(),
		MaxDepth: maxDepth,
	}, nil
}

// relax applies the 5-point Jacobi operator to the owned rows. Side
// walls (columns 0 and Cols-1) are Dirichlet zero; the global top and
// bottom walls arrive as permanently zero halo rows on the outermost
// ranks.
func relax(cur, nxt []float64, rows, w int) {
	for r := 1; r <= rows; r++ {
		base := r * w
		nxt[base] = 0
		nxt[base+w-1] = 0
		for cx := 1; cx < w-1; cx++ {
			i := base + cx
			nxt[i] = 0.25 * (cur[i-w] + cur[i+w] + cur[i-1] + cur[i+1])
		}
	}
}

// encodeRow serializes one row of cells as little-endian float64 bits —
// the window byte format.
func encodeRow(dst []byte, row []float64) {
	for i, v := range row {
		binary.LittleEndian.PutUint64(dst[i*cellBytes:], math.Float64bits(v))
	}
}

// decodeRow is the inverse of encodeRow.
func decodeRow(dst []float64, src []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[i*cellBytes:]))
	}
}

// checksumOwned hashes the owned rows (row-major, little-endian bits).
func checksumOwned(grid []float64, rows, w int) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for r := 1; r <= rows; r++ {
		for cx := 0; cx < w; cx++ {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(grid[r*w+cx]))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}
