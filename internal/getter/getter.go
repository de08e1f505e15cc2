// Package getter abstracts "a way to read remote window memory" so the
// paper's applications (Barnes-Hut, LCC) can run unchanged over the three
// systems compared in the evaluation:
//
//   - Raw: plain MPI-3 RMA gets (the foMPI baseline),
//   - Cached: gets through CLaMPI (internal/core),
//   - Blocked: gets through the block-based direct-mapped software cache
//     that stands in for the "native" ad-hoc cache of the UPC Barnes-Hut
//     implementation (internal/blockcache).
//
// All three speak contiguous byte ranges, which is what both applications
// issue.
package getter

import (
	"clampi/internal/core"
	"clampi/internal/datatype"
	"clampi/internal/rma"
)

// Getter reads count bytes from target's window region. As with MPI_Get,
// the destination is valid only after Flush returns.
type Getter interface {
	// Get reads len(dst) bytes at byte displacement disp of target's
	// region into dst.
	Get(dst []byte, target, disp int) error
	// Flush completes all outstanding gets (closing the access epoch).
	Flush() error
	// Invalidate drops cached state, if any.
	Invalidate()
	// Name labels the system in benchmark output.
	Name() string
}

// BatchOp is one contiguous read of a batched get: len(Dst) bytes at
// byte displacement Disp of Target's region. It is the transport's own
// batch descriptor, so Raw and Cached hand a batch on untranslated.
type BatchOp = rma.GetOp

// Batcher is the optional vectorized extension of Getter: systems that
// can issue many gets in one call (coalescing misses, amortizing
// per-call overhead) implement it. Use the package-level GetBatch to
// issue a batch through any Getter.
type Batcher interface {
	// GetBatch issues every op with the semantics of individual Get
	// calls; destinations are valid after the next Flush.
	GetBatch(ops []BatchOp) error
}

// GetBatch issues ops through g's Batcher fast path when it has one,
// falling back to sequential Get calls otherwise.
func GetBatch(g Getter, ops []BatchOp) error {
	if b, ok := g.(Batcher); ok {
		return b.GetBatch(ops)
	}
	for i := range ops {
		op := &ops[i]
		if err := g.Get(op.Dst, op.Target, op.Disp); err != nil {
			return err
		}
	}
	return nil
}

// Raw issues uncached window gets: the foMPI baseline.
type Raw struct {
	Win rma.Window
}

// NewRaw wraps a window in the baseline getter.
func NewRaw(win rma.Window) *Raw { return &Raw{Win: win} }

// Get implements Getter.
func (r *Raw) Get(dst []byte, target, disp int) error {
	return r.Win.Get(dst, datatype.Byte, len(dst), target, disp)
}

// Flush implements Getter.
func (r *Raw) Flush() error { return r.Win.FlushAll() }

// Invalidate implements Getter (no cache: no-op).
func (r *Raw) Invalidate() {}

// Name implements Getter.
func (r *Raw) Name() string { return "foMPI" }

// GetBatch implements Batcher: the ops go to the transport's native
// batch call when it has one (one message per op either way — the
// baseline never coalesces).
func (r *Raw) GetBatch(ops []BatchOp) error {
	if bw, ok := r.Win.(rma.BatchWindow); ok {
		return bw.GetBatch(ops)
	}
	for i := range ops {
		op := &ops[i]
		if err := r.Get(op.Dst, op.Target, op.Disp); err != nil {
			return err
		}
	}
	return nil
}

// Cached issues gets through a CLaMPI cache.
type Cached struct {
	Cache *core.Cache
}

// NewCached wraps a caching layer in the Getter interface.
func NewCached(c *core.Cache) *Cached { return &Cached{Cache: c} }

// Get implements Getter.
func (c *Cached) Get(dst []byte, target, disp int) error {
	return c.Cache.Get(dst, datatype.Byte, len(dst), target, disp)
}

// Flush implements Getter.
func (c *Cached) Flush() error { return c.Cache.Win().FlushAll() }

// Invalidate implements Getter.
func (c *Cached) Invalidate() { c.Cache.Invalidate() }

// Name implements Getter.
func (c *Cached) Name() string { return "CLaMPI" }

// GetBatch implements Batcher: hits are served locally and the misses
// are coalesced into merged per-target ranges by core.Cache.GetBatch.
func (c *Cached) GetBatch(ops []BatchOp) error { return c.Cache.GetBatch(ops) }

// Compile-time checks: both built-in getters batch.
var (
	_ Batcher = (*Raw)(nil)
	_ Batcher = (*Cached)(nil)
)
