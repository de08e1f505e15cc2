// Package clampi is a transparent caching layer for MPI-3 RMA,
// reproducing and extending "Transparent Caching for RMA Systems"
// (Di Girolamo, Vella, Hoefler — IPDPS 2017).
//
// CLaMPI caches the payloads of remote get operations in local memory so
// that irregular applications with temporal reuse (graph analytics,
// N-body simulations) replace microsecond-scale network accesses with
// sub-microsecond local copies. The layer is "weak": inserting into the
// cache may fail, bounding the overhead added to any miss to a constant,
// and consistency comes for free from the MPI-3 epoch model — cached
// data is only handed out in the epochs where MPI itself guarantees it
// cannot have changed.
//
// The surface is read-write. Put writes through the cache (patching an
// exactly-covering cached entry in place so the writer's own reads keep
// hitting), WithWriteBack stages written spans and flushes them as
// coalesced runs at epoch close, and PutNotify — the notifiable-RMA
// extension — additionally enqueues a notification naming the written
// span at every rank subscribed with WithNotify. Subscribed caches
// replace blanket epoch invalidation with targeted coherence: only the
// spans remote writers touched are invalidated (or patched from the
// carried bytes), so regular producer/consumer workloads like the
// bundled 2-D Jacobi halo exchange (internal/stencil, `clampi stencil`
// — the regular-access counterpoint to the LCC/BFS/N-body suite) keep
// their unchanged halos cached across epochs.
//
// # Runtime
//
// Because no MPI implementation is available to a pure-Go reproduction,
// the package ships its own in-process MPI-3 RMA runtime: ranks are
// goroutines, windows are byte regions, and network latency is modelled
// (calibrated to the Cray Aries numbers of the paper). Applications are
// written exactly as SPMD MPI programs:
//
//	clampi.Run(16, clampi.RunConfig{}, func(r *clampi.Rank) error {
//		win, local := r.WinAllocate(1<<20, nil)
//		defer win.Free()
//		cw, err := clampi.Wrap(win, clampi.WithMode(clampi.AlwaysCache))
//		if err != nil {
//			return err
//		}
//		if err := cw.LockAll(); err != nil {
//			return err
//		}
//		buf := make([]byte, 4096)
//		_ = cw.Get(buf, clampi.Bytes(4096), 1, (r.ID()+1)%r.Size(), 0)
//		_ = cw.FlushAll() // buf valid from here; repeat gets now hit
//		_ = cw.UnlockAll()
//		_ = local
//		return nil
//	})
//
// # Operational modes
//
// Transparent mode needs no application changes and invalidates the
// cache at every epoch closure. AlwaysCache suits windows whose memory
// is read-only for their whole lifespan (e.g. a distributed graph).
// The paper's user-defined mode is AlwaysCache plus explicit
// (*Window).Invalidate calls at the end of each read-only phase. On
// notify-enabled windows (WithNotify), transparent mode's blanket
// invalidation narrows to the notified spans — see DESIGN.md §16.
package clampi
