// Package lockord is the lockorder corpus: a miniature of the clampi
// lock landscape — fill mutexes, data-path stripes, a wire client, an
// observer and a window interface — covering the sanctioned shapes
// (clean) and every rule's violation (want).
package lockord

import "sync"

// shard mirrors blockcache.L2: the fill mutex tops the hierarchy.
type shard struct {
	mu sync.Mutex // clampi:lockrank fill
}

// table mirrors the striped data path of mpi/wire.
type table struct {
	stripes []sync.RWMutex // clampi:lockrank stripe
}

// Observer mirrors core.Observer: callbacks run arbitrary user code.
type Observer interface {
	OnEviction(key uint64)
}

// Window mirrors rma.Window: data ops may block on the transport.
type Window interface {
	Get(dst []byte, target int) error
}

// client mirrors wire.Client: RPC is a synchronous round-trip.
type client struct{}

func (c *client) RPC(op byte) error { return nil }

// lockFill/unlockFill are interprocedural lock helpers: lockFill
// returns with the fill mutex held (net acquire), unlockFill releases
// it on the caller's behalf (net release).
func lockFill(s *shard)   { s.mu.Lock() }
func unlockFill(s *shard) { s.mu.Unlock() }

// ---------------------------------------------------------------------------
// Sanctioned shapes — all clean.
// ---------------------------------------------------------------------------

// fillDeferred brackets with defer; the release folds at exit and the
// function's net effect on its caller is zero.
func fillDeferred(s *shard) {
	s.mu.Lock()
	defer s.mu.Unlock()
}

// ascendingConst takes two stripes with constant, strictly increasing
// indices — the provable total order.
func ascendingConst(t *table) {
	t.stripes[0].Lock()
	t.stripes[1].Lock()
	t.stripes[1].Unlock()
	t.stripes[0].Unlock()
}

// ascendingLoop mirrors mpi.lockRange/wire.lockStripes: one stripe per
// iteration of an upward loop, shared or exclusive per the caller.
func ascendingLoop(t *table, excl bool) {
	for i := 0; i < len(t.stripes); i++ {
		if excl {
			t.stripes[i].Lock()
		} else {
			t.stripes[i].RLock()
		}
	}
	for i := len(t.stripes) - 1; i >= 0; i-- {
		if excl {
			t.stripes[i].Unlock()
		} else {
			t.stripes[i].RUnlock()
		}
	}
}

// blockAfterRelease: blocking is fine once the fill mutex is gone.
func blockAfterRelease(s *shard, c *client) error {
	s.mu.Lock()
	s.mu.Unlock()
	return c.RPC(1)
}

// escapeHatch is a real violation acknowledged with the escape
// directive — the finding on that line is suppressed.
func escapeHatch(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() //clampi:lockorder corpus proof that the escape directive suppresses the finding
	b.mu.Unlock()
	a.mu.Unlock()
}

// ---------------------------------------------------------------------------
// Violations.
// ---------------------------------------------------------------------------

// twoFills holds two fill mutexes at once.
func twoFills(a, b *shard) {
	a.mu.Lock()
	b.mu.Lock() // want "second fill mutex"
	b.mu.Unlock()
	a.mu.Unlock()
}

// secondFillViaHelper hides the second acquisition in a callee.
func secondFillViaHelper(a, b *shard) {
	a.mu.Lock()
	lockFill(b) // want "call to lockord.lockFill may acquire a fill mutex while one is already held"
	unlockFill(b)
	a.mu.Unlock()
}

// rpcUnderFill performs a wire round-trip with the fill mutex held.
func rpcUnderFill(s *shard, c *client) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return c.RPC(2) // want "wire round-trip RPC while a fill mutex is held"
}

// observerUnderFill notifies an observer with the fill mutex held.
func observerUnderFill(s *shard, obs Observer) {
	s.mu.Lock()
	obs.OnEviction(7) // want "Observer callback OnEviction while a fill mutex is held"
	s.mu.Unlock()
}

// windowOpUnderFill issues a Window data op under the fill mutex.
func windowOpUnderFill(s *shard, w Window, buf []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return w.Get(buf, 0) // want "Window data op Get while a fill mutex is held"
}

// doRPC hides the round-trip one call deeper; its summary is Blocking.
func doRPC(c *client) error { return c.RPC(3) }

// blockingHelperUnderFill blocks through a summarized callee.
func blockingHelperUnderFill(s *shard, c *client) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return doRPC(c) // want "call to lockord.doRPC may block"
}

// heldAcrossCall blocks while the helper-acquired fill mutex (a net
// acquire in lockFill's summary) is still held.
func heldAcrossCall(s *shard, c *client) error {
	lockFill(s)
	err := c.RPC(4) // want "wire round-trip RPC while a fill mutex is held"
	unlockFill(s)
	return err
}

// releasedByHelper: unlockFill's net release clears the held set, so
// the round-trip after it is clean.
func releasedByHelper(s *shard, c *client) error {
	lockFill(s)
	unlockFill(s)
	return c.RPC(5)
}

// descendingStripes walks the stripe array downward — an inversion of
// the ascending total order by construction.
func descendingStripes(t *table) {
	for i := len(t.stripes) - 1; i >= 0; i-- {
		t.stripes[i].Lock() // want "descending loop"
	}
	for i := 0; i < len(t.stripes); i++ {
		t.stripes[i].Unlock()
	}
}

// reorderedPair takes two constant stripes in the wrong order — the
// deliberately-reordered lock pair of the acceptance criteria.
func reorderedPair(t *table) {
	t.stripes[1].Lock()
	t.stripes[0].Lock() // want "without provably ascending indices"
	t.stripes[0].Unlock()
	t.stripes[1].Unlock()
}

// lockStripe0 takes a stripe on its caller's behalf.
func lockStripe0(t *table) { t.stripes[0].Lock() }

// nestedStripeViaHelper holds a stripe while a callee takes another.
func nestedStripeViaHelper(t *table) {
	t.stripes[2].Lock()
	lockStripe0(t) // want "may acquire a stripe lock while a stripe is held"
	t.stripes[0].Unlock()
	t.stripes[2].Unlock()
}
